package main

import (
	"flag"
	"time"

	"rvma/internal/harness"
)

// This file is the flag registry: the single table every rvmasim flag is
// declared through, carrying its mode classification alongside its
// definition. The replica (-seeds) and shard (-shards) incompatibility
// audits used to be hand-maintained name lists that silently drifted when
// a flag was added; now they are generated from this table, and the
// registry test fails any flag that is registered outside it (or any
// table row that registers nothing), so a new flag cannot ship without an
// explicit replica/shard classification.

// simFlags holds every parsed flag value. Fields are populated by
// declareFlags via the registry rows.
type simFlags struct {
	motifName   *string
	transport   *string
	topoName    *string
	routing     *string
	nodes       *int
	gbps        *float64
	seed        *uint64
	rdmaBufs    *int
	rvmaDepth   *int
	doTrace     *bool
	doSpans     *bool
	metricsOut  *string
	perfOut     *string
	tsOut       *string
	heatOut     *string
	sampleIvl   *time.Duration
	recDepth    *int
	nackBurst   *float64
	attribOut   *string
	tailK       *int
	ledgerOut   *string
	ledgerEpoch *uint64
	shardOut    *string
	seeds       *int
	workers     *int
	dropRate    *float64
	faultPlan   *string
	retryBudget *int
	shards      *int
	unsafeScale *float64
	kvServers   *int
	kvClients   *int
	kvKeys      *int
	kvOps       *int
	kvWindow    *int
	kvSkew      *float64
	kvGap       *time.Duration
}

// flagSpec is one registry row: the flag's name, whether it is usable
// alongside -seeds N>1 (replicaOK) and above one shard, -shards N>1
// (shardOK), and the closure that registers it. Classification is part of the declaration —
// there is no way to add a flag without deciding both.
type flagSpec struct {
	name      string
	replicaOK bool
	shardOK   bool
	register  func(fs *flag.FlagSet, v *simFlags)
}

// flagTable is the registry, in declaration order. The generated audit
// lists preserve this order, which the error messages and their tests
// rely on. Observer flags (anything that binds a tracer, registry,
// sampler, recorder or ledger to a single engine) are replicaOK=false;
// the subset that needs a single-writer engine (per-message spans, the
// tracer/flight-recorder ring) is also shardOK=false: those attach to
// shard 0 of a one-shard run and are rejected above one shard.
var flagTable = []flagSpec{
	{"motif", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.motifName = fs.String("motif", "sweep3d", "motif: "+harness.MotifNames())
	}},
	{"transport", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.transport = fs.String("transport", "rvma", "transport: rvma, rdma")
	}},
	{"topology", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.topoName = fs.String("topology", "dragonfly", "topology: single, torus3d, fattree, dragonfly, hyperx")
	}},
	{"routing", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.routing = fs.String("routing", "adaptive", "routing: static, adaptive, valiant")
	}},
	{"nodes", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.nodes = fs.Int("nodes", 128, "minimum node count")
	}},
	{"gbps", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.gbps = fs.Float64("gbps", 100, "link speed in Gbps")
	}},
	{"seed", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.seed = fs.Uint64("seed", 1, "simulation seed")
	}},
	{"rdma-buffers", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.rdmaBufs = fs.Int("rdma-buffers", 1, "negotiated buffers per pair (RDMA transport)")
	}},
	{"rvma-depth", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.rvmaDepth = fs.Int("rvma-depth", 4, "posted buffer depth per mailbox (RVMA transport)")
	}},
	{"trace", false, false, func(fs *flag.FlagSet, v *simFlags) {
		v.doTrace = fs.Bool("trace", false, "record every layer's events in a 64-entry ring and print it after the run")
	}},
	{"spans", false, false, func(fs *flag.FlagSet, v *simFlags) {
		v.doSpans = fs.Bool("spans", false, "track per-message pipeline spans and print the latency table")
	}},
	{"metrics-out", false, true, func(fs *flag.FlagSet, v *simFlags) {
		v.metricsOut = fs.String("metrics-out", "", "write metrics snapshot JSON to this file")
	}},
	{"perfetto-out", false, false, func(fs *flag.FlagSet, v *simFlags) {
		v.perfOut = fs.String("perfetto-out", "", "write Chrome/Perfetto trace-event JSON to this file")
	}},
	{"timeseries-out", false, true, func(fs *flag.FlagSet, v *simFlags) {
		v.tsOut = fs.String("timeseries-out", "", "write sampled time-series CSV to this file")
	}},
	{"heatmap-out", false, true, func(fs *flag.FlagSet, v *simFlags) {
		v.heatOut = fs.String("heatmap-out", "", "write per-switch × time utilization matrix CSV to this file")
	}},
	{"sample-interval", false, true, func(fs *flag.FlagSet, v *simFlags) {
		v.sampleIvl = fs.Duration("sample-interval", 10*time.Microsecond, "telemetry sampling interval (sim time)")
	}},
	{"flight-recorder", false, false, func(fs *flag.FlagSet, v *simFlags) {
		v.recDepth = fs.Int("flight-recorder", 256, "flight recorder depth in events (0 disables)")
	}},
	{"nack-burst", false, false, func(fs *flag.FlagSet, v *simFlags) {
		v.nackBurst = fs.Float64("nack-burst", 0, "dump flight recorder when NACKs per sample window reach this (0 disables)")
	}},
	{"attrib-out", false, false, func(fs *flag.FlagSet, v *simFlags) {
		v.attribOut = fs.String("attrib-out", "", "write the latency-attribution report JSON to this file and print the blame table")
	}},
	{"tail-k", false, false, func(fs *flag.FlagSet, v *simFlags) {
		v.tailK = fs.Int("tail-k", 8, "worst-K depth of the latency-attribution tail exchange")
	}},
	{"ledger-out", false, true, func(fs *flag.FlagSet, v *simFlags) {
		v.ledgerOut = fs.String("ledger-out", "", "write the deterministic execution-ledger JSON to this file (compare with simdiff)")
	}},
	{"ledger-epoch", false, true, func(fs *flag.FlagSet, v *simFlags) {
		v.ledgerEpoch = fs.Uint64("ledger-epoch", 0, "ledger epoch size in events (0 = default 65536)")
	}},
	{"shard-plan-out", false, true, func(fs *flag.FlagSet, v *simFlags) {
		v.shardOut = fs.String("shard-plan-out", "", "write the per-component host-time profile (shard-planner report) to this file; .csv selects CSV, else JSON")
	}},
	{"seeds", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.seeds = fs.Int("seeds", 1, "run this many seed replicas (seed, seed+1, ...) and report each plus the mean")
	}},
	{"workers", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.workers = fs.Int("workers", 0, "replica concurrency for -seeds (0 = one per CPU)")
	}},
	{"drop-rate", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.dropRate = fs.Float64("drop-rate", 0, "uniform per-packet drop probability (shorthand for -fault-plan drop=P)")
	}},
	{"fault-plan", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.faultPlan = fs.String("fault-plan", "", "fault plan spec: drop=RATE,burst=N,window=NODE:FROM:TO:RATE")
	}},
	{"retry-budget", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.retryBudget = fs.Int("retry-budget", 0, "max retransmits per op under faults (0 = recovery default, -1 = disable recovery)")
	}},
	{"shards", false, true, func(fs *flag.FlagSet, v *simFlags) {
		v.shards = fs.Int("shards", 1, "partition the simulation into N >= 1 lookahead-synchronized shards; output is byte-identical at any shard count")
	}},
	{"unsafe-lookahead-scale", false, true, func(fs *flag.FlagSet, v *simFlags) {
		v.unsafeScale = fs.Float64("unsafe-lookahead-scale", 1, "multiply the shard lookahead by this factor (needs -shards above 1); >1 deliberately breaks conservatism (CI divergence canary — do not use)")
	}},
	// KV dataplane knobs (see -motif kv): pure workload parameters, safe in
	// every mode.
	{"kv-servers", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.kvServers = fs.Int("kv-servers", 0, "server ranks holding the keyed mailbox store (0 = scale with node count)")
	}},
	{"kv-clients", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.kvClients = fs.Int("kv-clients", 0, "simulated client population aggregated at the edge proxies (0 = default 2^20)")
	}},
	{"kv-keys", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.kvKeys = fs.Int("kv-keys", 0, "keyspace size (0 = default 4096)")
	}},
	{"kv-ops", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.kvOps = fs.Int("kv-ops", 0, "operations issued per proxy (0 = default 32)")
	}},
	{"kv-window", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.kvWindow = fs.Int("kv-window", 0, "outstanding-op window per proxy (0 = default 4)")
	}},
	{"kv-skew", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.kvSkew = fs.Float64("kv-skew", 0.99, "zipfian key-popularity exponent (0 = uniform keyspace)")
	}},
	{"kv-gap", true, true, func(fs *flag.FlagSet, v *simFlags) {
		v.kvGap = fs.Duration("kv-gap", 2*time.Microsecond, "mean per-proxy issue gap; smaller = higher offered load (0 = default 2µs)")
	}},
}

// declareFlags registers every row of the registry on fs and returns the
// bound values.
func declareFlags(fs *flag.FlagSet) *simFlags {
	v := &simFlags{}
	for _, f := range flagTable {
		f.register(fs, v)
	}
	return v
}

// auditNames generates an audit list from the registry in declaration
// order.
func auditNames(bad func(flagSpec) bool) []string {
	var names []string
	for _, f := range flagTable {
		if bad(f) {
			names = append(names, f.name)
		}
	}
	return names
}

// replicaUnsupported is the generated list of flags rejected alongside
// -seeds N>1: every observer binds to a single engine, and sharding binds
// the run to one engine group. Defaults do not trigger the audit — only
// flags the user actually set on the command line count.
var replicaUnsupported = auditNames(func(f flagSpec) bool { return !f.replicaOK })

// shardUnsupported is the generated list of flags rejected alongside
// -shards N>1: the observers that need a single-writer engine.
var shardUnsupported = auditNames(func(f flagSpec) bool { return !f.shardOK })

// replicaIncompatible returns, in declaration order, the replica-unsupported
// flags present in set (the explicitly-set flag names from flag.Visit).
func replicaIncompatible(set map[string]bool) []string {
	var bad []string
	for _, name := range replicaUnsupported {
		if set[name] {
			bad = append(bad, name)
		}
	}
	return bad
}

// shardIncompatible returns, in declaration order, the shard-unsupported
// flags present in set.
func shardIncompatible(set map[string]bool) []string {
	var bad []string
	for _, name := range shardUnsupported {
		if set[name] {
			bad = append(bad, name)
		}
	}
	return bad
}
