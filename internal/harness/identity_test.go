package harness

import (
	"encoding/json"
	"fmt"
	"testing"

	"rvma/internal/ledger"
	"rvma/internal/metrics"
)

// cellLedger runs one cell through the harness cell pipeline with a
// canonical ledger attached and returns the parsed ledger.
func cellLedger(t *testing.T, o Options, spec ledger.RunSpec, reg *metrics.Registry) ledger.Ledger {
	t.Helper()
	o.LedgerDir = t.TempDir()
	spec.Shards = o.Shards
	out := runOneCell(o, spec, reg)
	if out.Err != nil {
		t.Fatalf("%s shards=%d: %v", cellName(spec), o.Shards, out.Err)
	}
	var l ledger.Ledger
	if err := json.Unmarshal(out.Ledger, &l); err != nil {
		t.Fatal(err)
	}
	return l
}

// identityCells is the 64-node Figure-7 cell (sweep3d, dragonfly/adaptive,
// seed 42) for both transports, lossless and at 5% loss with recovery.
func identityCells() []ledger.RunSpec {
	o := DefaultOptions()
	o.Nodes = 64
	var specs []ledger.RunSpec
	for _, drop := range []float64{0, 0.05} {
		for _, spec := range ledgerCellSpecs(o) {
			spec.Drop, spec.Recover = drop, drop > 0
			specs = append(specs, spec)
		}
	}
	return specs
}

// TestChainHeadIdenticalAtEveryShardCount: the default shard count, one
// shard and four shards all simulate the same run, so their canonical
// chain heads and event counts are equal. A count equal to the default is
// the base run itself and is not run again. Besides the identity cells it
// runs the same network's RVMA incast and KV cells at 5% loss with
// recovery (the KV cell at rvmasim's default skew 0.99 and 2 µs gap).
func TestChainHeadIdenticalAtEveryShardCount(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen 64-node motif simulations")
	}
	o := DefaultOptions()
	o.Nodes = 64
	incast := o.spec(MotifIncast, "rvma", telemetryTestNet(), 100)
	incast.Drop, incast.Recover = 0.05, true
	kv := incast
	kv.Motif, kv.KVSkew, kv.KVGapNs = string(MotifKV), 0.99, 2000
	for _, spec := range append(identityCells(), incast, kv) {
		o := DefaultOptions()
		o.Nodes = 64
		base := cellLedger(t, o, spec, newCellRegistry(o.Shards))
		for _, shards := range []int{1, 4} {
			if shards == o.Shards {
				continue
			}
			o := o
			o.Shards = shards
			got := cellLedger(t, o, spec, newCellRegistry(shards))
			if got.ChainHead != base.ChainHead || got.Events != base.Events {
				t.Errorf("%s: shards=%d chain head %s (%d events), default %s (%d events)",
					cellName(spec), shards, got.ChainHead, got.Events, base.ChainHead, base.Events)
			}
		}
	}
}

// TestSpansDoNotChangeChainHead: span instrumentation only stamps marks,
// it never schedules events, so a one-shard cell gives the same canonical
// chain head and event count with spans on and off — while the spans-on
// run really recorded put spans.
func TestSpansDoNotChangeChainHead(t *testing.T) {
	for _, spec := range identityCells() {
		o := DefaultOptions()
		o.Nodes = 64
		o.Shards = 1
		spansOn := metrics.NewRegistry()
		spansOn.EnableSpans()
		on := cellLedger(t, o, spec, spansOn)
		off := cellLedger(t, o, spec, metrics.NewRegistry())
		if on.ChainHead != off.ChainHead || on.Events != off.Events {
			t.Errorf("%s: spans on gives chain head %s (%d events), off %s (%d events)",
				cellName(spec), on.ChainHead, on.Events, off.ChainHead, off.Events)
		}
		if n := spansOn.Histogram(fmt.Sprintf("span.%s.put/total", spec.Transport)).Count(); n == 0 {
			t.Errorf("%s: spans enabled but no %s.put span ended", cellName(spec), spec.Transport)
		}
	}
}
