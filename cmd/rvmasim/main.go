// Command rvmasim runs a single motif simulation with explicit parameters,
// for exploring points outside the paper's sweeps.
//
// Usage:
//
//	rvmasim -motif sweep3d -transport rvma -topology dragonfly \
//	        -routing adaptive -nodes 128 -gbps 400
//
// It prints the simulated makespan and fabric statistics.
//
// Observability flags:
//
//	-trace             attach a tracer to every layer (fabric, NIC,
//	                   protocol endpoints) and print counters, series and
//	                   the tail of the event log after the run
//	-spans             track every message through its pipeline stages and
//	                   print the per-stage latency table (count, mean, p50,
//	                   p99, max)
//	-metrics-out F     write the full metrics snapshot (counters, gauges,
//	                   histograms) as indented JSON to F
//	-perfetto-out F    write a Chrome trace-event timeline to F; open it at
//	                   ui.perfetto.dev (each node renders as a process,
//	                   each span scope as a thread)
//	-attrib-out F      decompose every message's end-to-end latency into
//	                   per-stage wait vs service components, print the blame
//	                   table and worst-K tail forensics, and write the full
//	                   attribution report JSON to F
//	-tail-k N          worst-K depth of the attribution tail exchange
//	                   (default 8)
//
// Determinism-forensics flags (see internal/ledger and cmd/simdiff):
//
//	-ledger-out F      record the deterministic execution ledger (hash
//	                   chain over every model event pop) and write it to F;
//	                   compare two ledgers with simdiff
//	-ledger-epoch N    ledger epoch size in events (0 = default 65536)
//	-shard-plan-out F  record the per-component host-time profile and
//	                   write the shard-planner report to F (.csv suffix
//	                   selects CSV, anything else JSON)
//
// Time-resolved telemetry flags:
//
//	-timeseries-out F  attach the in-sim sampler and write the columnar
//	                   time-series CSV (one row per sample, sorted columns)
//	-heatmap-out F     write the per-switch × time utilization matrix CSV
//	-sample-interval D sampler cadence in sim time (default 10µs); the
//	                   interval doubles automatically if the row cap is hit
//	-flight-recorder N keep a causal ring of the last N model events and
//	                   dump it to stderr when a simdebug invariant trips, a
//	                   NACK burst exceeds -nack-burst, or the run is
//	                   interrupted (SIGINT)
//	-nack-burst N      NACK-burst dump threshold per sample window
//
// Fault-injection flags (see internal/fabric.FaultPlan and
// internal/recovery):
//
//	-drop-rate P       drop each delivered packet with probability P
//	                   (shorthand for -fault-plan drop=P)
//	-fault-plan S      full plan spec "drop=RATE,burst=N,
//	                   window=NODE:FROM:TO:RATE" (NODE may be "all";
//	                   times take ns/us/ms/s suffixes)
//	-retry-budget N    max retransmits per operation when faults are
//	                   active (0 = recovery default, -1 = disable the
//	                   recovery layer entirely — lossy runs then deadlock)
//
// KV dataplane flags (see internal/motif's RunKV; active with -motif kv):
//
//	-kv-servers N      server ranks holding the keyed mailbox store
//	                   (0 = scale with node count)
//	-kv-clients N      simulated client population aggregated at the edge
//	                   proxies (0 = default 2^20); per-client state stays
//	                   bounded at the proxies regardless of N
//	-kv-keys N         keyspace size (0 = default 4096)
//	-kv-ops N          operations issued per proxy (0 = default 32)
//	-kv-window N       outstanding-op window per proxy (0 = default 4)
//	-kv-skew S         zipfian key-popularity exponent (0 = uniform;
//	                   default 0.99)
//	-kv-gap D          mean per-proxy issue gap; smaller = higher offered
//	                   load (default 2µs)
//
// Parallel-execution flags (see internal/sim's ShardGroup):
//
//	-shards N          partition the simulation into N lookahead-
//	                   synchronized shards, one event heap per core
//	                   (default 1); output (makespan, metrics, telemetry,
//	                   canonical ledger chain head) is byte-identical at
//	                   any shard count. Above one shard the single-writer
//	                   observers (-trace, -spans, -perfetto-out,
//	                   -attrib-out, -flight-recorder) are rejected
//	-unsafe-lookahead-scale F
//	                   multiply the lookahead by F (needs -shards above 1);
//	                   F > 1 deliberately
//	                   breaks conservatism. Exists only as the CI divergence
//	                   canary: simdebug builds panic, release builds
//	                   silently diverge and the execution ledger pins the
//	                   first divergent event
//
// Replica flags:
//
//	-seeds N           run N independent replicas (seed, seed+1, ...) and
//	                   print per-seed makespans plus the mean; replicas run
//	                   concurrently on -workers goroutines, each with its
//	                   own engine, and results print in seed order
//	-workers N         replica concurrency (0 = one per CPU)
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"

	"rvma/internal/attrib"
	"rvma/internal/fabric"
	"rvma/internal/harness"
	"rvma/internal/ledger"
	"rvma/internal/metrics"
	"rvma/internal/motif"
	"rvma/internal/recovery"
	"rvma/internal/sim"
	"rvma/internal/stats"
	"rvma/internal/telemetry"
	"rvma/internal/topology"
	"rvma/internal/trace"
)

func main() {
	v := declareFlags(flag.CommandLine)
	flag.Parse()
	// Aliases into the registry-bound values; see flags.go for the table.
	motifName, transport, topoName, routing := v.motifName, v.transport, v.topoName, v.routing
	nodes, gbps, seed := v.nodes, v.gbps, v.seed
	rdmaBufs, rvmaDepth := v.rdmaBufs, v.rvmaDepth
	doTrace, doSpans := v.doTrace, v.doSpans
	metricsOut, perfOut, tsOut, heatOut := v.metricsOut, v.perfOut, v.tsOut, v.heatOut
	sampleIvl, recDepth, nackBurst := v.sampleIvl, v.recDepth, v.nackBurst
	attribOut, tailK := v.attribOut, v.tailK
	ledgerOut, ledgerEpoch, shardOut := v.ledgerOut, v.ledgerEpoch, v.shardOut
	seeds, workers := v.seeds, v.workers
	dropRate, faultPlan, retryBudget := v.dropRate, v.faultPlan, v.retryBudget
	shards, unsafeScale := v.shards, v.unsafeScale

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "rvmasim: "+format+"\n", args...)
		os.Exit(2)
	}

	var kind motif.TransportKind
	switch *transport {
	case "rvma":
		kind = motif.KindRVMA
	case "rdma":
		kind = motif.KindRDMA
	default:
		fail("unknown transport %q", *transport)
	}

	var route fabric.RoutingMode
	switch *routing {
	case "static":
		route = fabric.RouteStatic
	case "adaptive":
		route = fabric.RouteAdaptive
	case "valiant":
		route = fabric.RouteValiant
	default:
		fail("unknown routing %q", *routing)
	}

	topo, err := topology.ForNodeCount(topology.Kind(*topoName), *nodes)
	if err != nil {
		fail("%v", err)
	}

	// KV workload knobs resolve against the topology-rounded rank count;
	// the other motifs ignore them.
	kvp := harness.KVParams{Skew: *v.kvSkew, GapNs: float64(v.kvGap.Nanoseconds()),
		Ops: *v.kvOps, Servers: *v.kvServers, Clients: *v.kvClients,
		Keys: *v.kvKeys, Window: *v.kvWindow}
	isKV := harness.MotifName(*motifName) == harness.MotifKV
	var kvCfg motif.KVConfig
	if isKV {
		kvCfg = kvp.Config(topo.NumNodes(), *seed)
	}

	// Fault plan: -fault-plan gives the full spec, -drop-rate layers a
	// uniform rate on top (or stands alone as the common case).
	plan, err := fabric.ParseFaultPlan(*faultPlan)
	if err != nil {
		fail("%v", err)
	}
	if *dropRate > 0 {
		if plan == nil {
			plan = &fabric.FaultPlan{}
		}
		plan.DropRate = *dropRate
	}
	if plan != nil {
		if err := plan.Validate(); err != nil {
			fail("%v", err)
		}
	}
	// The recovery layer rides along whenever faults are active; -retry-budget
	// -1 runs the lossy fabric bare (which deadlocks at any real loss rate —
	// useful as the control).
	var recCfg *recovery.Config
	if plan != nil && *retryBudget >= 0 {
		rc := recovery.DefaultConfig()
		if *retryBudget > 0 {
			rc.MaxRetries = *retryBudget
		}
		recCfg = &rc
	}

	// Replica mode: N independent seeds on a worker pool, one engine per
	// replica, printed in seed order. The observability flags attach to a
	// single engine, so they require a single run; every one of them is
	// rejected here (explicitly-set defaults included) rather than silently
	// ignored.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *seeds > 1 {
		if bad := replicaIncompatible(set); len(bad) > 0 {
			fail("flag(s) -%s attach observers to a single engine and are incompatible with -seeds; drop them or set -seeds 1",
				strings.Join(bad, ", -"))
		}
		rep := replicaConfig{
			motifName: *motifName, kind: kind, topoName: *topoName,
			route: route, nodes: *nodes, gbps: *gbps,
			rdmaBufs: *rdmaBufs, rvmaDepth: *rvmaDepth,
			faults: plan, recovery: recCfg, kvp: kvp,
		}
		fmt.Printf("motif:      %s\n", *motifName)
		fmt.Printf("transport:  %s\n", kind)
		fmt.Printf("network:    %s, %s routing, %g Gbps links\n", topo.Name(), route, *gbps)
		runSeedReplicas(rep, *seed, *seeds, *workers, fail)
		return
	}

	if err := shardFlagsError(*shards, *unsafeScale, set); err != nil {
		fail("%v", err)
	}

	cfg := motif.DefaultClusterConfig(topo, kind)
	cfg.Routing = route
	cfg.Seed = *seed
	cfg.RDMABuffers = *rdmaBufs
	cfg.RVMADepth = *rvmaDepth
	cfg.Faults = plan
	cfg.Recovery = recCfg
	cfg.Shards = *shards
	cfg.ApplyLinkSpeed(*gbps)
	cluster, err := motif.NewCluster(cfg)
	if err != nil {
		fail("%v", err)
	}

	// The CI divergence canary: deliberately widen the claimed-safe window
	// past what cross-shard latencies justify, so shards execute past
	// handoffs they have not received. simdebug builds refuse to run this;
	// release builds silently diverge, which is exactly what the execution
	// ledger must catch.
	if *unsafeScale != 1 {
		cluster.Group.UnsafeScaleLookahead(*unsafeScale)
		fmt.Fprintf(os.Stderr,
			"rvmasim: WARNING: lookahead scaled by %g — conservatism deliberately broken, results are untrustworthy\n",
			*unsafeScale)
	}

	// Execution ledger / shard-plan profile. The recorder is a pure observer
	// on the engines' pop loops — attaching it cannot change the
	// simulation — and its canonical chain is a pure function of the model,
	// identical at every shard count.
	var canonRec *ledger.CanonicalRecorder
	if *ledgerOut != "" || *shardOut != "" {
		lo := ledger.Options{EpochEvents: *ledgerEpoch, Profile: *shardOut != ""}
		if rs, ok := replayableSpec(*motifName, *transport, *topoName, *routing,
			*nodes, *gbps, *seed, *rdmaBufs, *rvmaDepth,
			*faultPlan, *dropRate, *retryBudget, *shards); ok {
			if isKV {
				// Embed the resolved KV knobs so simdiff's replay rebuilds the
				// identical proxy plans (skew and gap are meaningful at zero).
				rs.KVSkew = kvCfg.Skew
				rs.KVGapNs = kvCfg.Gap.Nanoseconds()
				rs.KVOps = kvCfg.OpsPerProxy
				rs.KVServers = kvCfg.Servers
				rs.KVClients = kvCfg.Clients
				rs.KVKeys = kvCfg.Keys
				rs.KVWindow = kvCfg.Window
			}
			if *unsafeScale != 1 {
				// Canary runs embed the broken scale so simdiff's replay
				// reproduces the divergent chain and pins the first event.
				rs.UnsafeLookaheadScale = *unsafeScale
			}
			lo.Run = &rs
		}
		canonRec = ledger.NewCanonicalRecorder(lo)
		canonRec.AttachGroup(cluster.Group)
	}

	var tr *trace.Tracer
	if *doTrace {
		tr = trace.New(cluster.Eng, 64) // counters/series plus a small event ring
		tr.EnableAll()
		cluster.SetTracer(tr)
	}

	// Flight recorder: a bounded causal ring of recent model events, dumped
	// with context when the run fails. It reuses the trace layer, so like
	// the tracer it needs one shard; with -trace also set the explicit
	// tracer doubles as the recorder ring.
	oneShard := cluster.Group.Shards() == 1
	var rec *telemetry.FlightRecorder
	if *recDepth > 0 && oneShard {
		rtr := tr
		if rtr == nil {
			rtr = trace.New(cluster.Eng, *recDepth)
			rtr.EnableAll()
			cluster.SetTracer(rtr)
		}
		rec = telemetry.NewFlightRecorder(rtr, os.Stderr)
		rec.Arm() // dump on any simdebug invariant violation
		defer rec.Disarm()
	}

	// In-sim sampling: one deterministic telemetry daemon per shard, each
	// reading only shard-owned state, merged into one columnar CSV after
	// the run. The NACK-burst watcher rides shard 0's sampler, which on a
	// one-shard run sees every endpoint.
	var shardSet *telemetry.ShardSet
	if *tsOut != "" || *heatOut != "" || (*nackBurst > 0 && rec != nil) {
		ivl := sim.FromNanos(float64(sampleIvl.Nanoseconds()))
		shardSet = telemetry.NewShardSet(cluster.Group, ivl)
		cluster.RegisterTelemetryShards(shardSet)
		if *nackBurst > 0 && rec != nil {
			rec.WatchNACKBurst(shardSet.Sampler(0), func() float64 { return float64(cluster.NACKTotal()) }, *nackBurst)
		}
		shardSet.Start()
	}

	// A cancelled run still yields its recent history: dump the recorder
	// on SIGINT, then exit with the conventional interrupted status.
	if rec != nil {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt)
		go func() {
			<-sigc
			rec.Dump("run cancelled (SIGINT)")
			os.Exit(130)
		}()
	}
	var reg *metrics.Registry
	var attribCol *attrib.Collector
	if *doSpans || *metricsOut != "" || *perfOut != "" || *attribOut != "" {
		reg = metrics.NewRegistry()
		if *doSpans || *perfOut != "" || *attribOut != "" {
			reg.EnableSpans()
		}
		if *perfOut != "" {
			reg.EnableTimeline(0)
		}
		cluster.AttachShardMetrics(reg)
		if *attribOut != "" {
			attribCol = attrib.NewCollector(*tailK)
			cluster.AttachAttribution(reg, attribCol)
		}
		if oneShard {
			// Sample collector-backed gauges periodically so queue depths and
			// utilization show their mid-run values, not just the final state.
			// Multi-shard runs fold per-shard shadows after the run instead.
			cluster.Eng.SetHeartbeat(4096, reg.Collect)
		}
	}

	var makespan sim.Time
	var kvRes *motif.KVResult
	switch harness.MotifName(*motifName) {
	case harness.MotifSweep3D:
		makespan, err = motif.RunSweep3D(cluster, motif.DefaultSweep3DConfig(topo.NumNodes()))
	case harness.MotifHalo3D:
		makespan, err = motif.RunHalo3D(cluster, motif.DefaultHalo3DConfig(topo.NumNodes()))
	case harness.MotifIncast:
		makespan, err = motif.RunIncast(cluster, motif.DefaultIncastConfig())
	case harness.MotifKV:
		makespan, kvRes, err = motif.RunKV(cluster, kvCfg)
	default:
		fail("unknown motif %q", *motifName)
	}
	if err != nil {
		// A wedged KV run still accounts for what it abandoned — print the
		// accounting before failing so CI can assert it.
		if kvRes != nil && kvRes.Issued > 0 {
			fmt.Printf("kv:         %d/%d ops completed (%.1f%%), %d abandoned\n",
				kvRes.Completed, kvRes.Issued,
				100*float64(kvRes.Completed)/float64(kvRes.Issued),
				kvRes.Issued-kvRes.Completed)
		}
		fail("%v", err)
	}

	cluster.FinishMetrics(reg)

	fmt.Printf("motif:      %s\n", *motifName)
	fmt.Printf("transport:  %s\n", kind)
	fmt.Printf("network:    %s, %s routing, %g Gbps links\n", topo.Name(), route, *gbps)
	fmt.Printf("shards:     %d (lookahead %v)\n", cluster.Group.Shards(), cluster.Group.Lookahead())
	fmt.Printf("makespan:   %v\n", makespan)
	fmt.Printf("events:     %d executed\n", cluster.EventsExecuted())
	st := cluster.Net.TotalStats()
	fmt.Printf("fabric:     %d packets delivered, %.0f MB, mean latency %v, mean hops %.2f\n",
		st.PacketsDelivered, float64(st.BytesDelivered)/1e6,
		cluster.Net.MeanPacketLatency(), cluster.Net.MeanHops())
	if st.ValiantDetours > 0 {
		fmt.Printf("routing:    %d Valiant detours\n", st.ValiantDetours)
	}
	live, resident := cluster.HostMemory()
	fmt.Printf("memory:     %.2f MB live in host buffers, %.2f MB of contents held\n",
		float64(live)/1e6, float64(resident)/1e6)
	if plan != nil {
		fmt.Printf("faults:     %d packets dropped (%.1f kB)\n",
			st.PacketsDropped, float64(st.BytesDropped)/1e3)
		if recCfg != nil {
			rs := cluster.RecoveryStats()
			fmt.Printf("recovery:   %d/%d ops completed (%d recovered), %d retransmits, %d timeouts, %d nack-retries, %d exhausted, %d reclaims\n",
				rs.OpsCompleted, rs.OpsStarted, rs.Recovered, rs.Retransmits,
				rs.Timeouts, rs.NackRetries, rs.Exhausted, rs.Reclaims)
		}
	}
	if kvRes != nil {
		fmt.Printf("kv:         %d/%d ops completed (%.1f%%), %d simulated clients via %d proxies (%d touched)\n",
			kvRes.Completed, kvRes.Issued,
			100*float64(kvRes.Completed)/float64(kvRes.Issued),
			kvRes.SimulatedClients, kvRes.Proxies, kvRes.DistinctClients)
		goodput := 0.0
		if secs := makespan.Seconds(); secs > 0 {
			goodput = float64(kvRes.PayloadBytes) * 8 / secs / 1e9
		}
		fmt.Printf("kv latency: p50 %v, p99 %v, p99.9 %v; goodput %s; cas-conflicts %d/%d\n",
			sim.FromNanos(kvRes.Lat.Quantile(0.50)),
			sim.FromNanos(kvRes.Lat.Quantile(0.99)),
			sim.FromNanos(kvRes.Lat.Quantile(0.999)),
			stats.FormatGbps(goodput), kvRes.CASFail, kvRes.CASFail+kvRes.CASOK)
	}
	if *doSpans {
		fmt.Println("\nper-message stage latency:")
		reg.FprintSpans(os.Stdout)
		if open := reg.OpenSpans(); open > 0 {
			fmt.Printf("spans still open at end of run: %d\n", open)
		}
	}
	if *attribOut != "" {
		f, err := os.Create(*attribOut)
		if err != nil {
			fail("%v", err)
		}
		if err := attribCol.WriteJSON(f); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Println("\nlatency attribution (wait vs service, per stage):")
		attribCol.FprintBlame(os.Stdout)
		attribCol.FprintTail(os.Stdout)
		fmt.Printf("attribution: report written to %s (conservation violations: %d, open spans: %d)\n",
			*attribOut, attribCol.Violations(), attribCol.Open())
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fail("%v", err)
		}
		if err := reg.WriteJSON(f, cluster.Eng.Now()); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("metrics:    snapshot written to %s\n", *metricsOut)
	}
	if *perfOut != "" {
		f, err := os.Create(*perfOut)
		if err != nil {
			fail("%v", err)
		}
		if err := reg.Timeline().WritePerfetto(f); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		recorded, dropped := reg.Timeline().Events()
		fmt.Printf("timeline:   %d events written to %s (%d dropped at cap); open at ui.perfetto.dev\n",
			recorded, *perfOut, dropped)
	}
	if *tsOut != "" {
		f, err := os.Create(*tsOut)
		if err != nil {
			fail("%v", err)
		}
		if err := shardSet.WriteCSV(f); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("telemetry:  %d samples merged from %d shards written to %s\n",
			shardSet.Samples(), shardSet.Shards(), *tsOut)
	}
	if *heatOut != "" {
		f, err := os.Create(*heatOut)
		if err != nil {
			fail("%v", err)
		}
		if err := shardSet.WriteHeatmapCSV(f, fabric.TelemetryHeatmapPrefix); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("heatmap:    per-switch utilization matrix written to %s\n", *heatOut)
	}
	if *ledgerOut != "" {
		led := canonRec.Finalize()
		if err := led.WriteFile(*ledgerOut); err != nil {
			fail("%v", err)
		}
		replayNote := ""
		if led.Run == nil {
			replayNote = "; no replayable run spec (non-default knobs), simdiff will localize to epoch only"
		}
		fmt.Printf("ledger:     %d events in %d epochs, chain head %s, written to %s%s\n",
			led.Events, len(led.Epochs), led.ChainHead, *ledgerOut, replayNote)
	}
	if *shardOut != "" {
		prof := canonRec.Profile()
		f, err := os.Create(*shardOut)
		if err != nil {
			fail("%v", err)
		}
		if strings.HasSuffix(*shardOut, ".csv") {
			err = prof.WriteCSV(f)
		} else {
			err = prof.WriteJSON(f)
		}
		if err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("shard plan: %d components over %d events written to %s\n",
			len(prof.Components), prof.TotalEvents, *shardOut)
	}
	if tr != nil {
		fmt.Println("\ntrace:")
		tr.Dump(os.Stdout)
	}
}

// shardFlagsError audits the shard count against the other flags: -shards
// must be at least 1, and above one shard the single-writer observer flags
// (explicitly set ones only, like the replica audit) are rejected; the
// lookahead canary only means something above one shard.
func shardFlagsError(shards int, unsafeScale float64, set map[string]bool) error {
	if shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", shards)
	}
	if shards == 1 {
		if unsafeScale != 1 {
			return fmt.Errorf("-unsafe-lookahead-scale only applies above one shard; set -shards")
		}
		return nil
	}
	if bad := shardIncompatible(set); len(bad) > 0 {
		return fmt.Errorf("flag(s) -%s need a single-writer engine and are incompatible with -shards above 1; drop them or set -shards 1",
			strings.Join(bad, ", -"))
	}
	return nil
}

// replayableSpec builds the RunSpec embedded in -ledger-out files so
// cmd/simdiff can replay the run for event-level divergence resolution.
// Replay goes through the harness cell runner, which only reproduces runs
// whose knobs match the harness defaults; anything it cannot express —
// non-default transport buffer depths, structured fault plans, disabled
// recovery — yields ok=false and the ledger is written without a spec
// (epoch-level localization still works, replay does not).
func replayableSpec(motifName, transport, topoName, routing string,
	nodes int, gbps float64, seed uint64, rdmaBufs, rvmaDepth int,
	faultPlan string, dropRate float64, retryBudget int, shards int) (ledger.RunSpec, bool) {
	if rdmaBufs != 1 || rvmaDepth != 4 || faultPlan != "" || retryBudget < 0 {
		return ledger.RunSpec{}, false
	}
	rs := ledger.RunSpec{
		Motif:     motifName,
		Transport: transport,
		Topology:  topoName,
		Routing:   routing,
		Network:   topoName + "/" + routing,
		Nodes:     nodes,
		Gbps:      gbps,
		Seed:      seed,
		Drop:      dropRate,
		Shards:    shards,
	}
	if dropRate > 0 {
		rs.Recover = true
		if retryBudget > 0 {
			rs.RetryBudget = retryBudget
		}
	}
	return rs, true
}

// replicaConfig is one -seeds replica's experiment point (everything but
// the seed itself).
type replicaConfig struct {
	motifName string
	kind      motif.TransportKind
	topoName  string
	route     fabric.RoutingMode
	nodes     int
	gbps      float64
	rdmaBufs  int
	rvmaDepth int
	faults    *fabric.FaultPlan
	recovery  *recovery.Config
	kvp       harness.KVParams
}

// runReplica builds a private topology, cluster and engine for one seed
// and runs the motif to completion. It shares nothing with other replicas.
func runReplica(rep replicaConfig, seed uint64) (sim.Time, uint64, error) {
	topo, err := topology.ForNodeCount(topology.Kind(rep.topoName), rep.nodes)
	if err != nil {
		return 0, 0, err
	}
	cfg := motif.DefaultClusterConfig(topo, rep.kind)
	cfg.Routing = rep.route
	cfg.Seed = seed
	cfg.RDMABuffers = rep.rdmaBufs
	cfg.RVMADepth = rep.rvmaDepth
	cfg.Faults = rep.faults
	cfg.Recovery = rep.recovery
	cfg.ApplyLinkSpeed(rep.gbps)
	cluster, err := motif.NewCluster(cfg)
	if err != nil {
		return 0, 0, err
	}
	var makespan sim.Time
	switch harness.MotifName(rep.motifName) {
	case harness.MotifSweep3D:
		makespan, err = motif.RunSweep3D(cluster, motif.DefaultSweep3DConfig(topo.NumNodes()))
	case harness.MotifHalo3D:
		makespan, err = motif.RunHalo3D(cluster, motif.DefaultHalo3DConfig(topo.NumNodes()))
	case harness.MotifIncast:
		makespan, err = motif.RunIncast(cluster, motif.DefaultIncastConfig())
	case harness.MotifKV:
		makespan, _, err = motif.RunKV(cluster, rep.kvp.Config(topo.NumNodes(), seed))
	default:
		err = fmt.Errorf("unknown motif %q", rep.motifName)
	}
	if err != nil {
		return 0, 0, err
	}
	return makespan, cluster.EventsExecuted(), nil
}

// runSeedReplicas fans seeds base..base+n-1 over a worker pool and prints
// the per-seed makespans in seed order, then the mean and spread. The
// output is identical at any worker count because results land in a
// pre-sized slice indexed by seed offset.
func runSeedReplicas(rep replicaConfig, base uint64, n, workers int, fail func(string, ...any)) {
	type result struct {
		makespan sim.Time
		events   uint64
		err      error
	}
	out := make([]result, n)
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				m, ev, err := runReplica(rep, base+uint64(i))
				out[i] = result{makespan: m, events: ev, err: err}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	fmt.Printf("replicas:   %d seeds on %d workers\n\n", n, workers)
	fmt.Printf("%-8s %-16s %s\n", "seed", "makespan", "events")
	var sumNS, minNS, maxNS float64
	for i, r := range out {
		if r.err != nil {
			fail("seed %d: %v", base+uint64(i), r.err)
		}
		ns := r.makespan.Nanoseconds()
		sumNS += ns
		if i == 0 || ns < minNS {
			minNS = ns
		}
		if ns > maxNS {
			maxNS = ns
		}
		fmt.Printf("%-8d %-16v %d\n", base+uint64(i), r.makespan, r.events)
	}
	fmt.Printf("\nmean:       %v (min %v, max %v)\n",
		sim.FromNanos(sumNS/float64(n)), sim.FromNanos(minNS), sim.FromNanos(maxNS))
}
