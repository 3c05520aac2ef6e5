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
//	                   protocol endpoints) and print the last 64 events
//	                   it recorded after the run
//	-spans             track every message through its pipeline stages and
//	                   print the per-stage latency table (count, mean, p50,
//	                   p99, max)
//	-metrics-out F     write the full metrics snapshot (counters, gauges,
//	                   histograms) as indented JSON to F; collector-backed
//	                   gauges are read once, at the end of the run, so the
//	                   file is byte-identical at any -shards
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
//	-profile-out F     record the per-component host-time profile and
//	                   write it to F (.csv suffix selects CSV, anything
//	                   else JSON)
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
//	                   interrupted (SIGINT); 256 by default in simdebug
//	                   builds, where invariants can trip, 0 (off) otherwise
//	-nack-burst N      NACK-burst dump threshold per sample window (needs
//	                   the flight recorder on)
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
//	                   observer flags (-trace, -spans, -perfetto-out,
//	                   -flight-recorder, -nack-burst, -attrib-out, -tail-k:
//	                   the singleWriterFlag rows of the flag table) are
//	                   rejected
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
//	                   on the harness worker pool, -workers goroutines,
//	                   each with its own engine, and results print in seed
//	                   order; every observer flag is rejected alongside
//	                   it, while -shards applies to each replica
//	-workers N         replica concurrency (0 = one per CPU)
//
// Every run is described as one ledger.RunSpec and built by the harness's
// one cell builder (harness.RunCell), the path the figure sweeps and
// simdiff's replay take too, so every -ledger-out file embeds a spec that
// replays. Bad input exits 2 with a message naming the flag.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"rvma/internal/attrib"
	"rvma/internal/fabric"
	"rvma/internal/harness"
	"rvma/internal/ledger"
	"rvma/internal/metrics"
	"rvma/internal/motif"
	"rvma/internal/sim"
	"rvma/internal/stats"
	"rvma/internal/telemetry"
	"rvma/internal/trace"
)

func main() {
	c, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fail("%v", err)
	}
	if scale := c.spec.UnsafeLookaheadScale; scale != 0 {
		fmt.Fprintf(os.Stderr,
			"rvmasim: WARNING: lookahead scaled by %g — conservatism deliberately broken, results are untrustworthy\n", scale)
	}
	if c.seeds > 1 {
		runReplicas(c.spec, c.seeds, c.workers)
		return
	}
	run(c.spec, c.obs)
}

// run runs rs once with the observers o asks for and prints the report.
func run(rs ledger.RunSpec, o observe) {
	// Execution ledger / host-time profile. The recorder is a pure observer
	// on the engines' pop loops — attaching it cannot change the
	// simulation — and its canonical chain is a pure function of the model,
	// identical at every shard count.
	var canonRec *ledger.CanonicalRecorder
	if o.ledgerOut != "" || o.profileOut != "" {
		canonRec = ledger.NewCanonicalRecorder(ledger.Options{EpochEvents: o.ledgerEpoch, Profile: o.profileOut != "", Run: &rs})
	}
	var reg *metrics.Registry
	var attribCol *attrib.Collector
	if o.spans || o.metricsOut != "" || o.perfettoOut != "" || o.attribOut != "" {
		reg = metrics.NewRegistry()
		if o.spans || o.perfettoOut != "" || o.attribOut != "" {
			reg.EnableSpans()
		}
		if o.perfettoOut != "" {
			reg.EnableTimeline(0)
		}
		if o.attribOut != "" {
			attribCol = attrib.NewCollector(o.tailK)
		}
	}
	obs := harness.Observers{Metrics: reg, Attrib: attribCol, Ledger: canonRec}
	// The NACK-burst watcher rides shard 0's sampler, which on the one
	// shard the flight recorder needs sees every endpoint.
	if o.timeseriesOut != "" || o.heatmapOut != "" || o.nackBurst > 0 {
		obs.SampleEvery = sim.FromNanos(float64(o.sampleEvery.Nanoseconds()))
	}

	var cluster *motif.Cluster
	var samples *telemetry.ShardSet
	var tr *trace.Tracer
	var rec *telemetry.FlightRecorder
	obs.Attach = func(c *motif.Cluster, s *telemetry.ShardSet) {
		cluster, samples = c, s
		if o.trace {
			tr = trace.New(c.Eng, 64)
			tr.EnableAll()
			c.SetTracer(tr)
		}
		// Flight recorder: a bounded causal ring of recent model events,
		// dumped with context when the run fails. It reuses the trace
		// layer, so like the tracer it needs one shard; with -trace also
		// set the explicit tracer doubles as the recorder ring.
		if o.recorderDepth > 0 && rs.Shards == 1 {
			rtr := tr
			if rtr == nil {
				rtr = trace.New(c.Eng, o.recorderDepth)
				rtr.EnableAll()
				c.SetTracer(rtr)
			}
			rec = telemetry.NewFlightRecorder(rtr, os.Stderr)
			rec.Arm() // dump on any simdebug invariant violation
			if o.nackBurst > 0 {
				rec.WatchNACKBurst(s.Sampler(0), func() float64 { return float64(c.NACKTotal()) }, o.nackBurst)
			}
			// A cancelled run still yields its recent history: dump the
			// recorder on SIGINT, then exit with the interrupted status.
			sigc := make(chan os.Signal, 1)
			signal.Notify(sigc, os.Interrupt)
			go func() {
				<-sigc
				rec.Dump("run cancelled (SIGINT)")
				os.Exit(130)
			}()
		}
	}
	out := harness.RunCell(rs, obs)
	if rec != nil {
		rec.Disarm()
	}
	if out.Err != nil {
		// A wedged KV run still accounts for what it abandoned — print the
		// accounting before failing so CI can assert it.
		if kv := out.KV; kv != nil && kv.Issued > 0 {
			fmt.Printf("kv:         %d/%d ops completed (%.1f%%), %d abandoned\n",
				kv.Completed, kv.Issued, 100*float64(kv.Completed)/float64(kv.Issued), kv.Issued-kv.Completed)
		}
		failCell(out.Err)
	}

	makespan := out.Makespan
	printHeader(rs, out.Topology)
	fmt.Printf("shards:     %d (lookahead %v)\n", cluster.Group.Shards(), cluster.Group.Lookahead())
	fmt.Printf("makespan:   %v\n", makespan)
	fmt.Printf("events:     %d executed\n", out.Events)
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
	if rs.FaultPlan != "" || rs.Drop > 0 {
		fmt.Printf("faults:     %d packets dropped (%.1f kB)\n",
			st.PacketsDropped, float64(st.BytesDropped)/1e3)
		if rs.Recover {
			r := out.Recovery
			fmt.Printf("recovery:   %d/%d ops completed (%d recovered), %d retransmits, %d timeouts, %d nack-retries, %d exhausted, %d reclaims\n",
				r.OpsCompleted, r.OpsStarted, r.Recovered, r.Retransmits,
				r.Timeouts, r.NackRetries, r.Exhausted, r.Reclaims)
		}
	}
	if kvRes := out.KV; kvRes != nil {
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
	if o.spans {
		fmt.Println("\nper-message stage latency:")
		reg.FprintSpans(os.Stdout)
		if open := reg.OpenSpans(); open > 0 {
			fmt.Printf("spans still open at end of run: %d\n", open)
		}
	}
	if o.attribOut != "" {
		writeOut(o.attribOut, attribCol.WriteJSON)
		fmt.Println("\nlatency attribution (wait vs service, per stage):")
		attribCol.FprintBlame(os.Stdout)
		attribCol.FprintTail(os.Stdout)
		fmt.Printf("attribution: report written to %s (conservation violations: %d, open spans: %d)\n",
			o.attribOut, attribCol.Violations(), attribCol.Open())
	}
	if o.metricsOut != "" {
		writeOut(o.metricsOut, func(w io.Writer) error { return reg.WriteJSON(w, cluster.Eng.Now()) })
		fmt.Printf("metrics:    snapshot written to %s\n", o.metricsOut)
	}
	if o.perfettoOut != "" {
		writeOut(o.perfettoOut, reg.Timeline().WritePerfetto)
		recorded, dropped := reg.Timeline().Events()
		fmt.Printf("timeline:   %d events written to %s (%d dropped at cap); open at ui.perfetto.dev\n",
			recorded, o.perfettoOut, dropped)
	}
	if o.timeseriesOut != "" {
		writeOut(o.timeseriesOut, samples.WriteCSV)
		fmt.Printf("telemetry:  %d samples merged from %d shards written to %s\n",
			samples.Samples(), samples.Shards(), o.timeseriesOut)
	}
	if o.heatmapOut != "" {
		writeOut(o.heatmapOut, func(w io.Writer) error { return samples.WriteHeatmapCSV(w, fabric.TelemetryHeatmapPrefix) })
		fmt.Printf("heatmap:    per-switch utilization matrix written to %s\n", o.heatmapOut)
	}
	if o.ledgerOut != "" {
		led := canonRec.Finalize()
		if err := led.WriteFile(o.ledgerOut); err != nil {
			fail("%v", err)
		}
		fmt.Printf("ledger:     %d events in %d epochs, chain head %s, written to %s\n",
			led.Events, len(led.Epochs), led.ChainHead, o.ledgerOut)
	}
	if o.profileOut != "" {
		prof := canonRec.Profile()
		write := prof.WriteJSON
		if strings.HasSuffix(o.profileOut, ".csv") {
			write = prof.WriteCSV
		}
		writeOut(o.profileOut, write)
		fmt.Printf("profile:    %d components over %d events written to %s\n",
			len(prof.Components), prof.TotalEvents, o.profileOut)
	}
	if tr != nil {
		fmt.Println("\ntrace:")
		tr.Dump(os.Stdout)
	}
}

// specFlags names the flag behind each RunSpec field whose flag is not
// its JSON name with dashes.
var specFlags = map[string]string{"drop": "drop-rate", "kv_gap_ns": "kv-gap"}

// writeOut creates path and writes it with write, failing the run on any
// error.
func writeOut(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fail("%v", err)
	}
}

// fail prints the message and exits with the usage-error status.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rvmasim: "+format+"\n", args...)
	os.Exit(2)
}

// failCell exits on a cell error, naming the flag behind a bad spec field.
func failCell(err error) {
	var se *harness.SpecError
	if errors.As(err, &se) {
		name, ok := specFlags[se.Field]
		if !ok {
			name = strings.ReplaceAll(se.Field, "_", "-")
		}
		fail("-%s: %s", name, se.Msg)
	}
	fail("%v", err)
}

// printHeader prints the run's motif, transport and network lines.
func printHeader(rs ledger.RunSpec, topo string) {
	fmt.Printf("motif:      %s\n", rs.Motif)
	fmt.Printf("transport:  %s\n", strings.ToUpper(rs.Transport))
	fmt.Printf("network:    %s, %s routing, %g Gbps links\n", topo, rs.Routing, rs.Gbps)
}

// runReplicas runs seeds rs.Seed..rs.Seed+n-1 on the harness worker pool
// and prints the per-seed makespans in seed order, then the mean and
// spread. The output is identical at any worker count.
func runReplicas(rs ledger.RunSpec, n, workers int) {
	specs := make([]ledger.RunSpec, n)
	for i := range specs {
		specs[i] = rs
		specs[i].Seed = rs.Seed + uint64(i)
	}
	outs := harness.RunCells(specs, workers)
	for _, out := range outs {
		if out.Err != nil {
			failCell(fmt.Errorf("seed %d: %w", out.Spec.Seed, out.Err))
		}
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	printHeader(rs, outs[0].Topology)
	fmt.Printf("replicas:   %d seeds on %d workers\n\n", n, min(workers, n))
	fmt.Printf("%-8s %-16s %s\n", "seed", "makespan", "events")
	var sumNS, minNS, maxNS float64
	for i, out := range outs {
		ns := out.Makespan.Nanoseconds()
		sumNS += ns
		if i == 0 || ns < minNS {
			minNS = ns
		}
		if ns > maxNS {
			maxNS = ns
		}
		fmt.Printf("%-8d %-16v %d\n", out.Spec.Seed, out.Makespan, out.Events)
	}
	fmt.Printf("\nmean:       %v (min %v, max %v)\n",
		sim.FromNanos(sumNS/float64(n)), sim.FromNanos(minNS), sim.FromNanos(maxNS))
}
