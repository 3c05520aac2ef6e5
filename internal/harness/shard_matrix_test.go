package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/ledger"
	"rvma/internal/topology"
)

// matrixOut is one transport's observable output from a matrix cell run.
type matrixOut struct {
	snapshot  []byte // makespan + metrics snapshot without span families
	spanKeys  int    // span families the snapshot carried
	telemetry []byte // rendered time-series CSV
	chainHead string // canonical ledger chain head
	events    uint64 // canonical ledger event count
}

// runShardMatrix runs the Figure-7 determinism cell (dragonfly/adaptive,
// 5% loss with recovery) for both transports through the full harness
// cell pipeline — worker pool, per-shard telemetry, canonical ledger —
// and returns one matrixOut per transport.
func runShardMatrix(t *testing.T, shards, workers int) map[string]matrixOut {
	t.Helper()
	o := DefaultOptions()
	o.Nodes = 32
	o.Shards = shards
	o.Workers = workers
	o.TelemetryDir = t.TempDir()
	o.LedgerDir = t.TempDir()
	nc := NetConfig{"dragonfly/adaptive", topology.KindDragonfly, fabric.RouteAdaptive}
	var specs []ledger.RunSpec
	for _, transport := range []string{"rvma", "rdma"} {
		rs := o.spec(MotifSweep3D, transport, nc, 100)
		rs.Drop, rs.Recover = 0.05, true
		specs = append(specs, rs)
	}
	outs := runFigureCells(o, specs, true)
	res := make(map[string]matrixOut, len(outs))
	for _, out := range outs {
		if out.Err != nil {
			t.Fatalf("shards=%d workers=%d %s: %v", shards, workers, out.Spec.Transport, out.Err)
		}
		var js bytes.Buffer
		if err := out.Reg.WriteJSON(&js, out.Makespan); err != nil {
			t.Fatal(err)
		}
		stripped, spanKeys := withoutSpans(t, js.Bytes())
		var snap bytes.Buffer
		fmt.Fprintf(&snap, "makespan_ns=%v\n", out.Makespan.Nanoseconds())
		snap.Write(stripped)
		var led ledger.Ledger
		if err := json.Unmarshal(out.Ledger, &led); err != nil {
			t.Fatal(err)
		}
		if led.Mode != ledger.ModeCanonical {
			t.Fatalf("shards=%d: ledger mode %q, want %q", shards, led.Mode, ledger.ModeCanonical)
		}
		res[out.Spec.Transport] = matrixOut{
			snapshot:  snap.Bytes(),
			spanKeys:  spanKeys,
			telemetry: out.Telemetry,
			chainHead: led.ChainHead,
			events:    led.Events,
		}
	}
	return res
}

// withoutSpans re-renders a metrics snapshot with every span.* counter,
// gauge and histogram and the open-span count removed, and returns it with
// the number of span families it dropped. One-shard cells record spans;
// cells above one shard cannot, and otherwise report the same metrics.
func withoutSpans(t *testing.T, snapshot []byte) ([]byte, int) {
	t.Helper()
	var snap map[string]any
	if err := json.Unmarshal(snapshot, &snap); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, section := range []string{"counters", "gauges", "histograms"} {
		fams, _ := snap[section].(map[string]any)
		for name := range fams {
			if strings.HasPrefix(name, "span.") {
				delete(fams, name)
				dropped++
			}
		}
	}
	delete(snap, "spans_open")
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out, dropped
}

// TestShardWorkerMatrix is the harness-level acceptance gate for the
// sharded engine: one Figure-7 cell (dragonfly/adaptive, 5% loss with
// recovery, both transports) must produce byte-identical telemetry CSVs
// and canonical-ledger chain heads at every shard count in {1, 2, 4, 8}
// and every worker-pool width in {1, 4}, and the same metrics snapshot
// apart from the span families only one-shard cells record. Shard count
// partitions the simulation itself; worker count only schedules
// independent cells — neither may leak into the results.
func TestShardWorkerMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is 16 motif simulations; skipped in -short")
	}
	t.Parallel()
	base := runShardMatrix(t, 1, 1)
	for kind, b := range base {
		if b.events == 0 {
			t.Fatalf("%s baseline ledger recorded no events", kind)
		}
		if len(b.telemetry) == 0 {
			t.Fatalf("%s baseline rendered no telemetry", kind)
		}
		if b.spanKeys == 0 {
			t.Fatalf("%s one-shard baseline recorded no span families", kind)
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 4} {
			if shards == 1 && workers == 1 {
				continue
			}
			got := runShardMatrix(t, shards, workers)
			for kind, b := range base {
				g := got[kind]
				label := fmt.Sprintf("shards=%d workers=%d %s", shards, workers, kind)
				if !bytes.Equal(g.snapshot, b.snapshot) {
					t.Errorf("%s: metrics snapshot diverged from baseline:\n%s", label,
						firstDiffContext(g.snapshot, b.snapshot))
				}
				if !bytes.Equal(g.telemetry, b.telemetry) {
					t.Errorf("%s: telemetry CSV diverged from baseline:\n%s", label,
						firstDiffContext(g.telemetry, b.telemetry))
				}
				if g.chainHead != b.chainHead {
					t.Errorf("%s: ledger chain head %s, baseline %s", label, g.chainHead, b.chainHead)
				}
				if g.events != b.events {
					t.Errorf("%s: ledger recorded %d events, baseline %d", label, g.events, b.events)
				}
			}
		}
	}
}
