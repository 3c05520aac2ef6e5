package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"rvma/internal/harness"
	"rvma/internal/ledger"
	"rvma/internal/sim"
)

// This file is the flag registry: every rvmasim flag is one flagTable row
// that binds the flag straight into the run it describes and names the
// flag's class. A model flag sets a ledger.RunSpec field and an observer
// flag a field of observe. The one audit, auditFlags, reads the classes,
// and the registry test fails any flag registered outside the table, so a
// new flag cannot ship without a class.

// flagClass says in which run modes a flag may be set.
type flagClass int

const (
	// specFlag describes the run: a RunSpec field, or how many seed
	// replicas of it run on how many workers. It is usable in every mode.
	specFlag flagClass = iota
	// observerFlag attaches an observer to one run, so it is rejected
	// alongside -seeds N>1.
	observerFlag
	// singleWriterFlag attaches an observer that needs a single-writer
	// engine, so it is also rejected above one shard.
	singleWriterFlag
)

// observe is what the observer flags ask for.
type observe struct {
	trace, spans                                     bool
	metricsOut, perfettoOut, attribOut               string
	timeseriesOut, heatmapOut, ledgerOut, profileOut string
	sampleEvery                                      time.Duration
	recorderDepth, tailK                             int
	nackBurst                                        float64
	ledgerEpoch                                      uint64
}

// cli is everything the flags set.
type cli struct {
	spec           ledger.RunSpec
	obs            observe
	seeds, workers int
	// kvGap is -kv-gap; the spec holds it as KVGapNs.
	kvGap time.Duration
}

// flagSpec is one registry row: the flag's name, its class and the
// closure that registers it.
type flagSpec struct {
	name  string
	class flagClass
	bind  func(fs *flag.FlagSet, c *cli)
}

// defaultRecorderDepth is the -flight-recorder default. The recorder's
// main trigger is a simdebug invariant, which only a simdebug build can
// trip, and its tracer formats every event, so only a simdebug build
// keeps one by default.
func defaultRecorderDepth() int {
	if sim.DebugEnabled {
		return 256
	}
	return 0
}

// flagTable is the registry, in declaration order; the audit names
// rejected flags in this order.
var flagTable = []flagSpec{
	{"motif", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.spec.Motif, "motif", "sweep3d", "motif: "+harness.MotifNames())
	}},
	{"transport", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.spec.Transport, "transport", "rvma", "transport: rvma, rdma")
	}},
	{"topology", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.spec.Topology, "topology", "dragonfly", "topology: single, torus3d, fattree, dragonfly, hyperx")
	}},
	{"routing", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.spec.Routing, "routing", "adaptive", "routing: static, adaptive, valiant")
	}},
	{"nodes", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.spec.Nodes, "nodes", 128, "minimum node count")
	}},
	{"gbps", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.Float64Var(&c.spec.Gbps, "gbps", 100, "link speed in Gbps")
	}},
	{"seed", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.Uint64Var(&c.spec.Seed, "seed", 1, "simulation seed")
	}},
	{"rdma-buffers", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.spec.RDMABuffers, "rdma-buffers", 1, "negotiated buffers per pair (RDMA transport)")
	}},
	{"rvma-depth", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.spec.RVMADepth, "rvma-depth", 4, "posted buffer depth per mailbox (RVMA transport)")
	}},
	{"trace", singleWriterFlag, func(fs *flag.FlagSet, c *cli) {
		fs.BoolVar(&c.obs.trace, "trace", false, "record every layer's events in a 64-entry ring and print it after the run")
	}},
	{"spans", singleWriterFlag, func(fs *flag.FlagSet, c *cli) {
		fs.BoolVar(&c.obs.spans, "spans", false, "track per-message pipeline spans and print the latency table")
	}},
	{"metrics-out", observerFlag, func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.obs.metricsOut, "metrics-out", "", "write metrics snapshot JSON to this file")
	}},
	{"perfetto-out", singleWriterFlag, func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.obs.perfettoOut, "perfetto-out", "", "write Chrome/Perfetto trace-event JSON to this file")
	}},
	{"timeseries-out", observerFlag, func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.obs.timeseriesOut, "timeseries-out", "", "write sampled time-series CSV to this file")
	}},
	{"heatmap-out", observerFlag, func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.obs.heatmapOut, "heatmap-out", "", "write per-switch × time utilization matrix CSV to this file")
	}},
	{"sample-interval", observerFlag, func(fs *flag.FlagSet, c *cli) {
		fs.DurationVar(&c.obs.sampleEvery, "sample-interval", 10*time.Microsecond, "telemetry sampling interval (sim time)")
	}},
	{"flight-recorder", singleWriterFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.obs.recorderDepth, "flight-recorder", defaultRecorderDepth(), "flight recorder depth in events (0 disables; on by default only in simdebug builds)")
	}},
	{"nack-burst", singleWriterFlag, func(fs *flag.FlagSet, c *cli) {
		fs.Float64Var(&c.obs.nackBurst, "nack-burst", 0, "dump flight recorder when NACKs per sample window reach this (0 disables; needs -flight-recorder)")
	}},
	{"attrib-out", singleWriterFlag, func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.obs.attribOut, "attrib-out", "", "write the latency-attribution report JSON to this file and print the blame table")
	}},
	{"tail-k", singleWriterFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.obs.tailK, "tail-k", 8, "worst-K depth of the latency-attribution tail exchange")
	}},
	{"ledger-out", observerFlag, func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.obs.ledgerOut, "ledger-out", "", "write the deterministic execution-ledger JSON to this file (compare with simdiff)")
	}},
	{"ledger-epoch", observerFlag, func(fs *flag.FlagSet, c *cli) {
		fs.Uint64Var(&c.obs.ledgerEpoch, "ledger-epoch", 0, "ledger epoch size in events (0 = default 65536)")
	}},
	{"profile-out", observerFlag, func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.obs.profileOut, "profile-out", "", "write the per-component host-time profile to this file; .csv selects CSV, else JSON")
	}},
	{"seeds", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.seeds, "seeds", 1, "run this many seed replicas (seed, seed+1, ...) and report each plus the mean")
	}},
	{"workers", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.workers, "workers", 0, "replica concurrency for -seeds (0 = one per CPU)")
	}},
	{"drop-rate", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.Float64Var(&c.spec.Drop, "drop-rate", 0, "uniform per-packet drop probability (shorthand for -fault-plan drop=P)")
	}},
	{"fault-plan", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.spec.FaultPlan, "fault-plan", "", "fault plan spec: drop=RATE,burst=N,window=NODE:FROM:TO:RATE")
	}},
	{"retry-budget", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.spec.RetryBudget, "retry-budget", 0, "max retransmits per op under faults (0 = recovery default, -1 = disable recovery)")
	}},
	{"shards", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.spec.Shards, "shards", 1, "partition the simulation into N >= 1 lookahead-synchronized shards; output is byte-identical at any shard count")
	}},
	{"unsafe-lookahead-scale", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.Float64Var(&c.spec.UnsafeLookaheadScale, "unsafe-lookahead-scale", 1, "multiply the shard lookahead by this factor (needs -shards above 1); >1 deliberately breaks conservatism (CI divergence canary — do not use)")
	}},
	// KV dataplane knobs (see -motif kv).
	{"kv-servers", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.spec.KVServers, "kv-servers", 0, "server ranks holding the keyed mailbox store (0 = scale with node count)")
	}},
	{"kv-clients", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.spec.KVClients, "kv-clients", 0, "simulated client population aggregated at the edge proxies (0 = default 2^20)")
	}},
	{"kv-keys", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.spec.KVKeys, "kv-keys", 0, "keyspace size (0 = default 4096)")
	}},
	{"kv-ops", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.spec.KVOps, "kv-ops", 0, "operations issued per proxy (0 = default 32)")
	}},
	{"kv-window", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.spec.KVWindow, "kv-window", 0, "outstanding-op window per proxy (0 = default 4)")
	}},
	{"kv-skew", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.Float64Var(&c.spec.KVSkew, "kv-skew", 0.99, "zipfian key-popularity exponent (0 = uniform keyspace)")
	}},
	{"kv-gap", specFlag, func(fs *flag.FlagSet, c *cli) {
		fs.DurationVar(&c.kvGap, "kv-gap", 2*time.Microsecond, "mean per-proxy issue gap; smaller = higher offered load (0 = default 2µs)")
	}},
}

// declareFlags registers every row of the registry on fs and returns the
// value they bind into.
func declareFlags(fs *flag.FlagSet) *cli {
	c := &cli{}
	for _, f := range flagTable {
		f.bind(fs, c)
	}
	return c
}

// parseFlags parses args into the run they describe: it checks the
// values the spec cannot, audits the set flags against the run mode and
// applies the fix-ups where the spec's encoding differs from the flags'.
func parseFlags(fs *flag.FlagSet, args []string) (*cli, error) {
	c := declareFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := c.check(set); err != nil {
		return nil, err
	}
	c.fixSpec()
	return c, nil
}

// check rejects the values no spec check catches: the counts whose zero
// the spec would read as a default, a non-positive sample interval, the
// lookahead canary at one shard, a flag the run mode rejects and a NACK
// watch with no recorder to dump.
func (c *cli) check(set map[string]bool) error {
	for _, f := range []struct {
		name string
		val  int
	}{{"seeds", c.seeds}, {"shards", c.spec.Shards}, {"rdma-buffers", c.spec.RDMABuffers}, {"rvma-depth", c.spec.RVMADepth}} {
		if f.val < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", f.name, f.val)
		}
	}
	switch {
	case c.obs.sampleEvery <= 0:
		return fmt.Errorf("-sample-interval must be positive, got %v", c.obs.sampleEvery)
	case c.spec.Shards == 1 && c.spec.UnsafeLookaheadScale != 1:
		return fmt.Errorf("-unsafe-lookahead-scale only applies above one shard; set -shards")
	}
	if err := auditFlags(set, c.seeds, c.spec.Shards); err != nil {
		return err
	}
	if c.obs.nackBurst > 0 && c.obs.recorderDepth <= 0 {
		return fmt.Errorf("-nack-burst dumps the flight recorder, which is off; set -flight-recorder")
	}
	return nil
}

// auditFlags rejects, naming them in table order, the set flags the run
// mode cannot honour: every observer under -seeds N>1, since each replica
// runs unobserved, and the single-writer observers above one shard.
// Defaults never trip it, only flags set on the command line.
func auditFlags(set map[string]bool, seeds, shards int) error {
	var bad []string
	for _, f := range flagTable {
		if set[f.name] && (seeds > 1 && f.class != specFlag || shards > 1 && f.class == singleWriterFlag) {
			bad = append(bad, f.name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	why, fix := "attach observers to a single run and are incompatible with -seeds", "-seeds 1"
	if seeds <= 1 {
		why, fix = "need a single-writer engine and are incompatible with -shards above 1", "-shards 1"
	}
	return fmt.Errorf("flag(s) -%s %s; drop them or set %s", strings.Join(bad, ", -"), why, fix)
}

// fixSpec applies the fix-ups where the spec's encoding differs from the
// flags. Network is topology/routing. The -kv-* flags apply only to
// -motif kv. The recovery layer rides along whenever faults are active,
// except at -retry-budget -1, which runs the lossy fabric bare (it
// deadlocks at any real loss rate: the control). A lookahead scale of 1
// is stored as 0, no scaling.
func (c *cli) fixSpec() {
	rs := &c.spec
	rs.Network = rs.Topology + "/" + rs.Routing
	if rs.Motif == string(harness.MotifKV) {
		rs.KVGapNs = float64(c.kvGap.Nanoseconds())
	} else {
		rs.KVSkew, rs.KVOps, rs.KVServers, rs.KVClients, rs.KVKeys, rs.KVWindow = 0, 0, 0, 0, 0, 0
	}
	if rs.RetryBudget == -1 {
		rs.RetryBudget = 0
	} else {
		rs.Recover = strings.TrimSpace(rs.FaultPlan) != "" || rs.Drop > 0
	}
	if rs.UnsafeLookaheadScale == 1 {
		rs.UnsafeLookaheadScale = 0
	}
}
