package harness

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/hostif"
	"rvma/internal/ledger"
	"rvma/internal/topology"
)

// ledgerTestOptions is the small fig7-style configuration the ledger
// determinism tests run: one network, one link speed, both transports.
func ledgerTestOptions(t *testing.T, workers int, telemetry bool) Options {
	t.Helper()
	o := DefaultOptions()
	o.Nodes = 64
	o.LinkGbps = []float64{100}
	o.Workers = workers
	o.LedgerDir = t.TempDir()
	if telemetry {
		o.TelemetryDir = t.TempDir()
	}
	return o
}

// ledgerCellSpecs is the two-cell sweep used by the ledger tests.
func ledgerCellSpecs(o Options) []ledger.RunSpec {
	nc := NetConfig{"dragonfly/adaptive", topology.KindDragonfly, fabric.RouteAdaptive}
	return []ledger.RunSpec{o.spec(MotifSweep3D, "rvma", nc, 100), o.spec(MotifSweep3D, "rdma", nc, 100)}
}

// runLedgerCells runs the test sweep and returns cell name -> ledger file
// bytes.
func runLedgerCells(t *testing.T, o Options) map[string][]byte {
	t.Helper()
	outs := runFigureCells(o, ledgerCellSpecs(o), true)
	got := map[string][]byte{}
	for _, out := range outs {
		if out.Err != nil {
			t.Fatalf("cell %s: %v", cellName(out.Spec), out.Err)
		}
		if err := flushCellOutput(o, out); err != nil {
			t.Fatal(err)
		}
		got[cellName(out.Spec)] = out.Ledger
	}
	entries, err := os.ReadDir(o.LedgerDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(got) {
		t.Fatalf("wrote %d ledger files, want %d", len(entries), len(got))
	}
	return got
}

// TestLedgerIdenticalAcrossWorkers is the workers-1-vs-N half of the
// determinism contract: per-cell ledgers must be byte-identical at any
// worker count.
func TestLedgerIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	base := runLedgerCells(t, ledgerTestOptions(t, 1, false))
	for _, workers := range workerCounts()[1:] {
		got := runLedgerCells(t, ledgerTestOptions(t, workers, false))
		for cell, want := range base {
			if string(got[cell]) != string(want) {
				t.Fatalf("workers=%d: ledger for %s differs from serial run", workers, cell)
			}
		}
	}
}

// TestLedgerInvariantUnderTelemetry checks attaching the telemetry sampler
// (daemon events) does not perturb the ledger chain.
func TestLedgerInvariantUnderTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	plain := runLedgerCells(t, ledgerTestOptions(t, 1, false))
	sampled := runLedgerCells(t, ledgerTestOptions(t, 1, true))
	for cell, want := range plain {
		if string(sampled[cell]) != string(want) {
			t.Fatalf("telemetry sampling changed the ledger for %s", cell)
		}
	}
}

// TestLedgerRecorderDoesNotChangeResults runs the same cell with and
// without a ledger attached and compares the metric snapshots — the
// observer must be invisible to the model.
func TestLedgerRecorderDoesNotChangeResults(t *testing.T) {
	o := DefaultOptions()
	o.Nodes = 64
	spec := ledgerCellSpecs(o)[0]

	bare := runOneCell(o, spec, newCellRegistry(o.Shards))
	o.LedgerDir = t.TempDir()
	recorded := runOneCell(o, spec, newCellRegistry(o.Shards))
	if bare.Err != nil || recorded.Err != nil {
		t.Fatalf("cell errors: %v / %v", bare.Err, recorded.Err)
	}
	if bare.Makespan != recorded.Makespan {
		t.Fatalf("ledger recorder changed the makespan: %v vs %v", bare.Makespan, recorded.Makespan)
	}
	if recorded.Ledger == nil {
		t.Fatal("no ledger rendered")
	}
}

// TestReplayReproducesChainHead round-trips the RunSpec embedded in a cell
// ledger through ReplaySpec and checks the replay reaches the same chain
// head — the property simdiff's divergence replay stands on.
func TestReplayReproducesChainHead(t *testing.T) {
	o := ledgerTestOptions(t, 1, false)
	cells := runLedgerCells(t, o)
	for cell, raw := range cells {
		var l ledger.Ledger
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatal(err)
		}
		if l.Run == nil {
			t.Fatalf("%s: ledger carries no run spec", cell)
		}
		replay, _, err := ReplaySpec(&l, ReplayOptions{EpochEvents: l.EpochEvents})
		if err != nil {
			t.Fatalf("%s: replay: %v", cell, err)
		}
		if replay.ChainHead != l.ChainHead {
			t.Fatalf("%s: replay chain head %s != recorded %s", cell, replay.ChainHead, l.ChainHead)
		}
		if d := ledger.Compare(&l, replay); !d.Identical {
			t.Fatalf("%s: replay diverged: %+v", cell, d)
		}
		break // one transport suffices; the other is covered above
	}
}

// TestReplayWindowCapture arms a window on a replay and checks the records
// land in the requested pop range.
func TestReplayWindowCapture(t *testing.T) {
	o := ledgerTestOptions(t, 1, false)
	for _, raw := range runLedgerCells(t, o) {
		var l ledger.Ledger
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatal(err)
		}
		replay, _, err := ReplaySpec(&l, ReplayOptions{EpochEvents: l.EpochEvents, WindowFrom: 10, WindowTo: 20})
		if err != nil {
			t.Fatal(err)
		}
		w := replay.Window
		if w == nil || len(w.Records) != 10 {
			t.Fatalf("window capture: %+v", w)
		}
		if w.Records[0].Pop != 10 || w.Records[9].Pop != 19 {
			t.Fatalf("window range wrong: pops %d..%d", w.Records[0].Pop, w.Records[9].Pop)
		}
		break
	}
}

// TestReplayRefusesRawLedger: a raw pop-order ledger recorded by an
// earlier build cannot be replayed, and the error says to re-record it.
func TestReplayRefusesRawLedger(t *testing.T) {
	rs := ledgerCellSpecs(DefaultOptions())[0]
	raw := &ledger.Ledger{Version: ledger.Version, Run: &rs}
	if _, _, err := ReplaySpec(raw, ReplayOptions{}); err == nil || !strings.Contains(err.Error(), "re-record") {
		t.Fatalf("raw ledger replay: err = %v, want a re-record error", err)
	}
}

// TestReplayRejectsBadSpec: a hand-edited ledger whose spec the builder
// cannot run gets a *SpecError naming the field, not a panic.
func TestReplayRejectsBadSpec(t *testing.T) {
	o := DefaultOptions()
	o.Nodes = 16
	for field, edit := range map[string]func(*ledger.RunSpec){
		"gbps":       func(rs *ledger.RunSpec) { rs.Gbps = 0 },
		"kv_skew":    func(rs *ledger.RunSpec) { rs.Motif, rs.KVSkew = "kv", -1 },
		"rvma_depth": func(rs *ledger.RunSpec) { rs.RVMADepth = -4 },
		"fault_plan": func(rs *ledger.RunSpec) { rs.FaultPlan = "burst=two" },
		"routing":    func(rs *ledger.RunSpec) { rs.Routing = "random" },
	} {
		rs := ledgerCellSpecs(o)[0]
		edit(&rs)
		l := &ledger.Ledger{Version: ledger.Version, Mode: ledger.ModeCanonical, Run: &rs}
		_, _, err := ReplaySpec(l, ReplayOptions{})
		var se *SpecError
		if !errors.As(err, &se) || se.Field != field {
			t.Errorf("%s: err = %v, want a *SpecError for it", field, err)
		}
	}
}

// TestRunSpecRoundTrip checks a RunSpec survives the ledger file
// unchanged across the sweep grid, with every model knob set, and that the
// builder accepts each of them and rejects an unknown motif or transport.
func TestRunSpecRoundTrip(t *testing.T) {
	o := DefaultOptions()
	o.Nodes = 64
	var specs []ledger.RunSpec
	for _, nc := range motifNetworks() {
		specs = append(specs, o.spec(MotifHalo3D, "rvma", nc, 400))
	}
	knobs := o.spec(MotifIncast, "rdma", motifNetworks()[0], 100)
	knobs.RDMABuffers, knobs.RVMADepth = 2, 8
	knobs.FaultPlan, knobs.Drop, knobs.Recover, knobs.RetryBudget = "burst=2,window=all:5us:9us:0.5", 0.01, true, 3
	host := o.hostSpec(MotifPingPong, hostif.UCX(), colRDMAStatic, 4096)
	host.HostScale, host.Notify = 1.03, "poll"
	specs = append(specs, knobs, host)
	path := filepath.Join(t.TempDir(), "spec.ledger.json")
	for _, rs := range specs {
		if _, err := checkSpec(rs); err != nil {
			t.Fatalf("%s: %v", cellName(rs), err)
		}
		if err := (&ledger.Ledger{Version: ledger.Version, Mode: ledger.ModeCanonical, Run: &rs}).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		l, err := ledger.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if *l.Run != rs {
			t.Fatalf("round trip changed spec: %+v vs %+v", *l.Run, rs)
		}
	}
	badHost, badScale, badNotify := host, host, host
	badHost.Host, badScale.Host, badNotify.Notify = "tcp", "", "spin"
	for _, bad := range []ledger.RunSpec{{Motif: "nope"}, {Motif: "sweep3d", Transport: "tcp"}, badHost, badScale, badNotify} {
		var se *SpecError
		if out := RunCell(bad, Observers{}); !errors.As(out.Err, &se) {
			t.Fatalf("%+v: err = %v, want a *SpecError", bad, out.Err)
		}
	}
}

// TestLedgerFileName pins the cell-name flattening (the CI smoke job globs
// these names).
func TestLedgerFileName(t *testing.T) {
	got := ledgerFileName("sweep3d|dragonfly/adaptive|RVMA|100Gbps")
	want := "sweep3d_dragonfly-adaptive_RVMA_100Gbps.ledger.json"
	if got != want {
		t.Fatalf("ledgerFileName = %q, want %q", got, want)
	}
	if filepath.Ext(got) != ".json" {
		t.Fatal("not a .json name")
	}
}
