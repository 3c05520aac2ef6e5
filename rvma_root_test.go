package rvma_test

import (
	"bytes"
	"testing"

	"rvma"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

func TestTestbedQuickstart(t *testing.T) {
	tb, err := rvma.NewTestbed(2, rvma.TestbedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	win, err := tb.Endpoints[1].InitWindow(0x11FF0011, 1024, rvma.EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := win.PostBuffer(1024)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x42}, 1024)
	var localDone, remoteDone sim.Time
	tb.Engine.Schedule(0, func() {
		op := tb.Endpoints[0].Put(1, 0x11FF0011, 0, payload)
		op.Local.OnComplete(func() { localDone = tb.Engine.Now() })
	})
	tb.Engine.Schedule(0, func() {
		n := tb.Endpoints[1].WatchBuffer(buf)
		n.Done.OnComplete(func() { remoteDone = tb.Engine.Now() })
	})
	tb.Run()
	if localDone == 0 || remoteDone == 0 || localDone >= remoteDone {
		t.Fatalf("local %v, remote %v", localDone, remoteDone)
	}
	if got := tb.Endpoints[1].Memory().Read(buf.Region.Base, 1024); !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	if win.Epoch() != 1 {
		t.Fatalf("epoch = %d", win.Epoch())
	}
}

func TestTestbedCustomTopology(t *testing.T) {
	topo := topology.NewFatTree(4)
	tb, err := rvma.NewTestbed(topo.NumNodes(), rvma.TestbedConfig{Topology: topo, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Endpoints) != 16 {
		t.Fatalf("endpoints = %d", len(tb.Endpoints))
	}
	win, _ := tb.Endpoints[15].InitWindow(1, 64, rvma.EpochBytes)
	win.PostBuffer(64)
	done := false
	tb.Engine.Schedule(0, func() {
		op := tb.Endpoints[0].Put(15, 1, 0, make([]byte, 64))
		op.Local.OnComplete(func() {})
		win.NextCompletion().OnComplete(func() { done = true })
	})
	tb.Run()
	if !done {
		t.Fatal("cross-fat-tree put never completed")
	}
}

func TestFacadeConstantsMatch(t *testing.T) {
	if rvma.EpochBytes.String() != "EPOCH_BYTES" || rvma.EpochOps.String() != "EPOCH_OPS" {
		t.Fatal("epoch type names wrong")
	}
	if rvma.Steered.String() != "steered" || rvma.Managed.String() != "managed" {
		t.Fatal("mode names wrong")
	}
	cfg := rvma.DefaultConfig()
	if !cfg.NACKEnabled || cfg.HistoryDepth == 0 {
		t.Fatalf("default config = %+v", cfg)
	}
}
