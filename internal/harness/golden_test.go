package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/ledger"
	"rvma/internal/topology"
)

// update rewrites the golden chain-head table from the current model:
//
//	go test ./internal/harness -run TestGoldenChainHeads -update
//
// A change that alters the simulated model regenerates the table this way
// and says so; any other change must leave it untouched.
var update = flag.Bool("update", false, "rewrite testdata/golden_chain_heads.json")

const goldenPath = "testdata/golden_chain_heads.json"

// goldenCell is one row of the committed table: a cell's canonical ledger
// chain head and event count.
type goldenCell struct {
	Cell      string `json:"cell"`
	Events    uint64 `json:"events"`
	ChainHead string `json:"chain_head"`
}

// goldenSpecs are the benchmark's four 128-node workload shapes, run here
// at 64 nodes — fig7 (sweep3d, dragonfly/adaptive, 100 Gbps), fig8
// (halo3d, hyperx/DOR, 400 Gbps), kv (kv-overload's 500 ns issue gap on
// dragonfly/adaptive, 100 Gbps) and incast-loss (8 x 4 KiB per client,
// 400 Gbps, 5% drop, recovery on) — for both transports and seeds 42 and
// 7, keyed "workload/transport/seedN" in a fixed order.
func goldenSpecs() (names []string, specs []ledger.RunSpec) {
	dfly := NetConfig{"dragonfly/adaptive", topology.KindDragonfly, fabric.RouteAdaptive}
	hyperx := NetConfig{"hyperx/DOR", topology.KindHyperX, fabric.RouteStatic}
	for _, seed := range []uint64{42, 7} {
		o := DefaultOptions()
		o.Nodes = 64
		o.Seed = seed
		for _, w := range []struct {
			name  string
			shape func(transport string) ledger.RunSpec
		}{
			{"fig7", func(tr string) ledger.RunSpec { return o.spec(MotifSweep3D, tr, dfly, 100) }},
			{"fig8", func(tr string) ledger.RunSpec { return o.spec(MotifHalo3D, tr, hyperx, 400) }},
			{"kv", func(tr string) ledger.RunSpec {
				rs := o.spec(MotifKV, tr, dfly, 100)
				rs.KVSkew, rs.KVGapNs = 0.99, 500
				return rs
			}},
			{"incast-loss", func(tr string) ledger.RunSpec {
				rs := o.spec(MotifIncast, tr, dfly, 400)
				rs.Drop, rs.Recover = 0.05, true
				return rs
			}},
		} {
			for _, tr := range []string{"rvma", "rdma"} {
				names = append(names, fmt.Sprintf("%s/%s/seed%d", w.name, tr, seed))
				specs = append(specs, w.shape(tr))
			}
		}
	}
	return names, specs
}

// goldenRun runs every golden cell through the worker pool and returns
// the table rows.
func goldenRun(t *testing.T) []goldenCell {
	t.Helper()
	o := DefaultOptions()
	o.LedgerDir = t.TempDir()
	names, specs := goldenSpecs()
	var rows []goldenCell
	for i, out := range runFigureCells(o, specs) {
		if out.Err != nil {
			t.Fatalf("%s: %v", names[i], out.Err)
		}
		var l ledger.Ledger
		if err := json.Unmarshal(out.Ledger, &l); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, goldenCell{Cell: names[i], Events: l.Events, ChainHead: l.ChainHead})
	}
	return rows
}

// TestGoldenChainHeads pins the simulated model: every golden cell must
// reproduce the committed chain head and event count exactly. A one
// picosecond change to any model latency moves at least one chain head.
func TestGoldenChainHeads(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen 64-node motif simulations")
	}
	got := goldenRun(t)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(goldenPath), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(got), goldenPath)
		return
	}
	b, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCell
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden cells ran, table has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: %d events, chain head %s; golden %s: %d events, chain head %s",
				got[i].Cell, got[i].Events, got[i].ChainHead, want[i].Cell, want[i].Events, want[i].ChainHead)
		}
	}
}
