package harness

import (
	"fmt"
	"strings"

	"rvma/internal/fabric"
	"rvma/internal/ledger"
	"rvma/internal/metrics"
	"rvma/internal/motif"
	"rvma/internal/sim"
	"rvma/internal/stats"
	"rvma/internal/topology"
)

// foldKVResult folds a KV cell's application-level outcome into the
// cell's registry, so metrics snapshots and telemetry carry the kv.*
// series next to the substrate counters. The result is already merged in
// rank order, so the fold is byte-stable at any shard or worker count.
func foldKVResult(reg *metrics.Registry, res *motif.KVResult) {
	reg.Counter("kv.ops_issued").Add(res.Issued)
	reg.Counter("kv.ops_completed").Add(res.Completed)
	reg.Counter("kv.gets").Add(res.Gets)
	reg.Counter("kv.puts").Add(res.Puts)
	reg.Counter("kv.cas_ok").Add(res.CASOK)
	reg.Counter("kv.cas_fail").Add(res.CASFail)
	reg.Counter("kv.payload_bytes").Add(res.PayloadBytes)
	reg.Counter("kv.distinct_clients").Add(uint64(res.DistinctClients))
	reg.Histogram("kv.latency").Merge(res.Lat)
	reg.Histogram("kv.latency.get").Merge(res.GetLat)
	reg.Histogram("kv.latency.put").Merge(res.PutLat)
	reg.Histogram("kv.latency.cas").Merge(res.CASLat)
}

// kvSkews are the key-popularity exponents the KV table sweeps: uniform,
// the classic YCSB-like 0.99, and a hotter 1.2 tail.
var kvSkews = []float64{0, 0.99, 1.2}

// kvLoad is one offered-load point: the proxy inter-issue gap relative
// to the 2 µs default ("1x").
type kvLoad struct {
	label string
	gapNs float64
}

// kvLoads spans light load to 4x overload.
var kvLoads = []kvLoad{
	{"0.5x", 4000},
	{"1x", 2000},
	{"4x", 500},
}

// kvLossDrop is the loss regime appended to the sweep (at 0.99 skew, 1x
// load, recovery on): the FaultPlan rate CI's kv-smoke also pins.
const kvLossDrop = 0.05

// KVTable runs the KV dataplane motif — get/put/CAS from a ~10^6
// simulated-client population aggregated at edge proxies — across skew,
// offered load and transport, and reports tail latency (p99/p99.9),
// goodput, completion and CAS conflict rate. Two loss rows rerun the
// nominal point under 5% drop with the recovery layer. Cells run on the
// worker pool like every figure; the table is byte-identical at any
// worker and shard count.
func KVTable(o Options) *Table {
	t := &Table{
		Title: "KV dataplane: get/put/CAS tails under skew and load (dragonfly/adaptive)",
		Header: []string{"transport", "skew", "load", "drop", "p50", "p99", "p99.9",
			"goodput", "complete", "cas-fail", "rexmit"},
	}
	if len(o.LinkGbps) == 0 {
		o.LinkGbps = []float64{100}
	}
	nc := NetConfig{"dragonfly/adaptive", topology.KindDragonfly, fabric.RouteAdaptive}
	kvSpec := func(transport string, skew, gapNs float64) ledger.RunSpec {
		rs := o.spec(MotifKV, transport, nc, o.LinkGbps[0])
		rs.KVSkew, rs.KVGapNs = skew, gapNs
		return rs
	}
	var specs []ledger.RunSpec
	for _, skew := range kvSkews {
		for _, load := range kvLoads {
			for _, transport := range []string{"rvma", "rdma"} {
				specs = append(specs, kvSpec(transport, skew, load.gapNs))
			}
		}
	}
	for _, transport := range []string{"rvma", "rdma"} {
		rs := kvSpec(transport, 0.99, 2000)
		rs.Drop, rs.Recover, rs.RetryBudget = kvLossDrop, true, o.RetryBudget
		specs = append(specs, rs)
	}
	outs := runFigureCells(o, specs, false)
	var population *motif.KVResult
	for _, out := range outs {
		spec := out.Spec
		load := "-"
		for _, l := range kvLoads {
			if l.gapNs == spec.KVGapNs {
				load = l.label
			}
		}
		transport, skew, drop := strings.ToUpper(spec.Transport), fmt.Sprintf("%g", spec.KVSkew), fmt.Sprintf("%g", spec.Drop)
		if err := flushCellOutput(o, out); err != nil {
			t.AddRow(transport, skew, load, drop,
				"-", "-", "-", "-", kvCompletion(out.KV), "-", bareStatus(out))
			t.AddNote("FAILED %s: %v", cellName(spec), err)
			continue
		}
		res := out.KV
		if res == nil {
			t.AddNote("FAILED %s: no KV result", cellName(spec))
			continue
		}
		population = res
		goodput := "-"
		if secs := out.Makespan.Seconds(); secs > 0 {
			goodput = stats.FormatGbps(float64(res.PayloadBytes) * 8 / secs / 1e9)
		}
		t.AddRow(transport, skew, load, drop,
			sim.FromNanos(res.Lat.Quantile(0.50)).String(),
			sim.FromNanos(res.Lat.Quantile(0.99)).String(),
			sim.FromNanos(res.Lat.Quantile(0.999)).String(),
			goodput, kvCompletion(res), kvCASFail(res),
			fmt.Sprintf("%d", out.Recovery.Retransmits))
	}
	if population != nil {
		t.AddNote("population: %d simulated clients (%d per proxy across %d edge-aggregation proxies, %d touched), %d ops/proxy",
			population.SimulatedClients, population.ClientsPerProxy, population.Proxies,
			population.DistinctClients, population.Issued/uint64(population.Proxies))
	}
	t.AddNote("load is the inverse proxy issue gap relative to 2µs (1x); 4x is overload")
	t.AddNote("drop>0 rows rerun the nominal point under uniform loss with timeout/retransmit (budget %d)", defaultRetryBudget(o))
	t.AddNote("goodput counts application payload only (values and CAS words; headers, padding and retransmits excluded) at link %s",
		stats.FormatGbps(o.LinkGbps[0]))
	t.AddNote("cas-fail is the share of CAS ops rejected on a stale version — the hot-key contention signal")
	return t
}

// kvCompletion formats completed/issued as a percentage ("-" before any
// issue).
func kvCompletion(res *motif.KVResult) string {
	if res == nil || res.Issued == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(res.Completed)/float64(res.Issued))
}

// kvCASFail formats the CAS conflict rate ("-" when the mix had no CAS).
func kvCASFail(res *motif.KVResult) string {
	total := res.CASOK + res.CASFail
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(res.CASFail)/float64(total))
}
