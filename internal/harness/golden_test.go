package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rvma/internal/collective"
	"rvma/internal/fabric"
	"rvma/internal/hostif"
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
// 7, keyed "workload/transport/seedN" in a fixed order; then a cell of
// each table built on other motifs; then the other 70 cells of the
// 64-node fig7 sweep at seed 42 (the nine motifNetworks at 100, 200, 400
// and 2,000 Gbps, both transports), keyed by their cell names.
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
	// The cells of the other tables, at seed 42: the §V-A ping-pong on
	// both testbeds under every completion scheme, Figure 6's setup
	// handshake, a collective and the last-byte ablation.
	o := DefaultOptions()
	o.Nodes, o.Iters = 64, 50
	poll := colRVMA
	poll.notify = "poll"
	for _, prof := range []hostif.Profile{hostif.Verbs(), hostif.UCX()} {
		for _, c := range []struct {
			name string
			col  pingPongColumn
		}{{"rvma-mwait", colRVMA}, {"rvma-poll", poll}, {"rdma-lastbyte", colRDMAStatic}, {"rdma-fence", colRDMAAdaptive}} {
			names = append(names, fmt.Sprintf("pingpong/%s/%s/seed42", prof.Name, c.name))
			specs = append(specs, o.hostSpec(MotifPingPong, prof, c.col, 64))
		}
	}
	setup := o.hostSpec(MotifSetup, hostif.UCX(), pingPongColumn{transport: "rdma", routing: fabric.RouteStatic}, 4096)
	setup.Iters = 0
	lastByte := o.spec(MotifSweep3D, "rdma", NetConfig{"hyperx/DOR", topology.KindHyperX, fabric.RouteStatic}, 400)
	lastByte.LastByte = true
	names = append(names, "setup/ucx/rdma/seed42", "allreduce/rvma/seed42", "last-byte/rdma/seed42")
	specs = append(specs, setup, o.spec(MotifName(collective.OpAllreduce), "rvma", dfly, 100), lastByte)
	// The rest of rvmabench -nodes 64 fig7, named like its cells: every
	// network at every default link speed, for both transports.
	for _, nc := range motifNetworks() {
		for _, gbps := range DefaultOptions().LinkGbps {
			for _, tr := range []string{"rvma", "rdma"} {
				if nc.Name == dfly.Name && gbps == 100 {
					continue // the fig7 rows above
				}
				rs := o.spec(MotifSweep3D, tr, nc, gbps)
				names = append(names, cellName(rs))
				specs = append(specs, rs)
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
	for i, out := range runFigureCells(o, specs, false) {
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
		t.Skip("ninety-seven motif simulations")
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
