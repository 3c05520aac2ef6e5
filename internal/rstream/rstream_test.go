package rstream

import (
	"bytes"
	"errors"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/memory"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/rvma"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// streamPair wires two endpoints over a static-routed single switch.
func streamPair(t *testing.T, cfg Config) (*sim.Engine, *Conn, *Conn) {
	t.Helper()
	eng := sim.NewEngine(1)
	fcfg := fabric.DefaultConfig()
	fcfg.Routing = fabric.RouteStatic
	net, err := fabric.New(eng, topology.NewSingleSwitch(2), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := nic.DefaultProfile()
	a := rvma.NewEndpoint(nic.New(eng, net, 0, pcie.Gen4x16(), prof), rvma.DefaultConfig())
	b := rvma.NewEndpoint(nic.New(eng, net, 1, pcie.Gen4x16(), prof), rvma.DefaultConfig())
	ca, cb, err := Pair(a, b, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ca, cb
}

// pattern fabricates a deterministic byte stream.
func pattern(n, seed int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + seed)
	}
	return out
}

func TestWholeSegmentTransfer(t *testing.T) {
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 1024})
	msg := pattern(1024, 1)
	var got []byte
	eng.Spawn("writer", func(p *sim.Process) {
		f, err := ca.Write(msg)
		if err != nil {
			t.Error(err)
			return
		}
		p.Wait(f)
	})
	eng.Spawn("reader", func(p *sim.Process) {
		f, err := cb.Read(1024)
		if err != nil {
			t.Error(err)
			return
		}
		p.Wait(f)
		got = f.Value().([]byte)
	})
	eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("stream corrupted")
	}
	if cb.EarlyClaims != 0 {
		t.Fatalf("full segment should complete by threshold, not IncEpoch (claims=%d)", cb.EarlyClaims)
	}
}

func TestPartialSegmentClaimedByReader(t *testing.T) {
	// The §III-C stream case: writer sends fewer bytes than the segment
	// threshold; the blocked reader must claim the partial segment with
	// IncEpoch rather than hanging.
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 4096})
	msg := pattern(100, 2)
	var got []byte
	eng.Spawn("writer", func(p *sim.Process) {
		ca.Write(msg)
	})
	eng.Spawn("reader", func(p *sim.Process) {
		f, _ := cb.Read(100)
		p.Wait(f)
		got = f.Value().([]byte)
	})
	eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("partial-segment read corrupted")
	}
	if cb.EarlyClaims == 0 {
		t.Fatal("reader should have claimed the partial segment via IncEpoch")
	}
}

func TestStreamHasNoMessageBoundaries(t *testing.T) {
	// Several writes, consumed by reads of unrelated sizes.
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 512})
	full := pattern(3000, 3)
	var got []byte
	eng.Spawn("writer", func(p *sim.Process) {
		for off := 0; off < len(full); off += 700 {
			end := off + 700
			if end > len(full) {
				end = len(full)
			}
			ca.Write(full[off:end])
			p.Sleep(2 * sim.Microsecond)
		}
	})
	eng.Spawn("reader", func(p *sim.Process) {
		for len(got) < len(full) {
			n := 450
			if rem := len(full) - len(got); n > rem {
				n = rem
			}
			f, err := cb.Read(n)
			if err != nil {
				t.Error(err)
				return
			}
			p.Wait(f)
			got = append(got, f.Value().([]byte)...)
		}
	})
	eng.Run()
	if !bytes.Equal(got, full) {
		t.Fatal("reassembled stream differs from written stream")
	}
	if cb.BytesConsumed != uint64(len(full)) {
		t.Fatalf("consumed %d bytes, want %d", cb.BytesConsumed, len(full))
	}
}

func TestFullDuplex(t *testing.T) {
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 256})
	ping := pattern(256, 4)
	pong := pattern(256, 5)
	okA, okB := false, false
	eng.Spawn("a", func(p *sim.Process) {
		ca.Write(ping)
		f, _ := ca.Read(256)
		p.Wait(f)
		okA = bytes.Equal(f.Value().([]byte), pong)
	})
	eng.Spawn("b", func(p *sim.Process) {
		f, _ := cb.Read(256)
		p.Wait(f)
		okB = bytes.Equal(f.Value().([]byte), ping)
		cb.Write(pong)
	})
	eng.Run()
	if !okA || !okB {
		t.Fatalf("full duplex exchange failed: a=%v b=%v", okA, okB)
	}
}

func TestLargeTransferSpansSegments(t *testing.T) {
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 1024, Depth: 8})
	big := pattern(64*1024, 6)
	var got []byte
	eng.Spawn("writer", func(p *sim.Process) { ca.Write(big) })
	eng.Spawn("reader", func(p *sim.Process) {
		f, _ := cb.Read(len(big))
		p.Wait(f)
		got = f.Value().([]byte)
	})
	eng.Run()
	if !bytes.Equal(got, big) {
		t.Fatal("64 KiB stream corrupted across segments")
	}
	// 64 segments went through the window, but the receiver's memory holds
	// only the 8 posted segments plus the Rewind history's retained ones.
	kept := 8 + cb.ep.Config().HistoryDepth
	if live, max := cb.ep.Memory().LiveBytes(), kept*(1024+memory.CacheLineSize); live > max {
		t.Fatalf("receiver holds %d B after 64 segments, want at most %d B", live, max)
	}
}

func TestBufferedAndImmediateRead(t *testing.T) {
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 128})
	msg := pattern(256, 7)
	eng.Spawn("writer", func(p *sim.Process) { ca.Write(msg) })
	eng.Run()
	if cb.Buffered() != 256 {
		t.Fatalf("buffered = %d, want 256 (two completed segments)", cb.Buffered())
	}
	// A read of already-buffered bytes resolves synchronously.
	f, err := cb.Read(256)
	if err != nil || !f.Done() {
		t.Fatalf("buffered read should resolve immediately: %v", err)
	}
	if !bytes.Equal(f.Value().([]byte), msg) {
		t.Fatal("buffered read corrupted")
	}
}

func TestPairRefusesAdaptiveRouting(t *testing.T) {
	eng := sim.NewEngine(1)
	fcfg := fabric.DefaultConfig()
	fcfg.Routing = fabric.RouteAdaptive
	net, _ := fabric.New(eng, topology.NewSingleSwitch(2), fcfg)
	prof := nic.DefaultProfile()
	a := rvma.NewEndpoint(nic.New(eng, net, 0, pcie.Gen4x16(), prof), rvma.DefaultConfig())
	b := rvma.NewEndpoint(nic.New(eng, net, 1, pcie.Gen4x16(), prof), rvma.DefaultConfig())
	if _, _, err := Pair(a, b, 1, Config{}); !errors.Is(err, ErrUnordered) {
		t.Fatalf("adaptive-routed pair: %v, want ErrUnordered", err)
	}
}

func TestCloseSemantics(t *testing.T) {
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 128})
	cb.Close()
	cb.Close() // idempotent
	if _, err := cb.Read(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := cb.Write(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	// The unclosed end keeps its own API available.
	if _, err := ca.Write(nil); err != nil {
		t.Fatalf("peer connection should remain usable: %v", err)
	}
	// Writes toward the closed end are NACKed by the receiver NIC.
	nacked := false
	eng.Schedule(0, func() {
		op := ca.ep.Put(cb.ep.Node(), ca.sendMbox, 0, make([]byte, 16))
		op.Nack.OnComplete(func() { nacked = true })
	})
	eng.Run()
	if !nacked {
		t.Fatal("write to closed stream should NACK")
	}
}

func TestZeroLengthWrite(t *testing.T) {
	_, ca, _ := streamPair(t, Config{})
	f, err := ca.Write(nil)
	if err != nil || !f.Done() {
		t.Fatalf("zero write: %v", err)
	}
	if _, err := ca.Read(0); err == nil {
		t.Fatal("zero read should error")
	}
}
