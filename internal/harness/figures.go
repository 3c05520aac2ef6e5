package harness

import (
	"fmt"
	"runtime"

	"rvma/internal/hostif"
	"rvma/internal/microbench"
	"rvma/internal/pcie"
	"rvma/internal/rvma"
	"rvma/internal/stats"
)

// Options scale the experiments. The paper's full runs (10 runs x 1,000 or
// 100,000 iterations; 8,192 nodes) regenerate with larger values; defaults
// finish in seconds on a laptop while preserving every trend.
type Options struct {
	// Sizes are the message sizes for the latency figures.
	Sizes []int
	// Iters is ping-pong iterations per run; Runs is independent runs.
	Iters, Runs int
	// Nodes is the motif system size (paper: 8,192).
	Nodes int
	// LinkGbps are the link speeds for the motif figures (paper: 100, 200,
	// 400, 2000).
	LinkGbps []float64
	// Seed makes everything reproducible.
	Seed uint64
	// RunNoise produces error bars (stddev of per-run overhead scale).
	RunNoise float64
	// TelemetryDir, when non-empty, makes the motif figures attach an
	// in-sim sampler to every report cell and write one time-series CSV
	// per cell into the directory (see internal/telemetry).
	TelemetryDir string
	// Bench, when non-nil, records wall time / simulated time / event
	// throughput for every motif cell run (rvmabench -json-out).
	Bench *BenchLog
	// Workers caps how many figure cells run concurrently; 0 means
	// runtime.NumCPU(). Each cell owns a private engine, metrics registry
	// and telemetry sampler, and results are merged in a fixed canonical
	// order, so output is byte-identical at any worker count.
	Workers int
	// FaultRates are the receiver-ingress drop probabilities for the
	// FaultSweep table; empty uses defaultFaultRates.
	FaultRates []float64
	// RetryBudget overrides the recovery layer's per-operation retransmit
	// budget in the FaultSweep (0 keeps recovery.DefaultConfig's).
	RetryBudget int
	// TailK is the worst-K depth of each cell's latency-attribution tail
	// exchange (0 keeps the attrib default of 8).
	TailK int
	// LedgerDir, when non-empty, attaches an execution-ledger recorder to
	// every motif cell's engine and writes one <cell>.ledger.json into the
	// directory during the serial merge phase (see internal/ledger). The
	// recorder only hashes fields every pop already carries, so results
	// stay byte-identical with or without it. The chain is the canonical
	// partition-invariant one, identical at any shard count.
	LedgerDir string
	// Shards partitions every motif cell's simulation across that many
	// event heaps with conservative lookahead synchronization
	// (sim.ShardGroup); values below 1 mean 1, the default. Tables,
	// telemetry CSVs and ledger chain heads are byte-identical at every
	// shard count, apart from span instrumentation: spans key state across
	// nodes, which would cross shard boundaries, so only one-shard cells
	// record them, and above one shard the put-p99 columns read "-" and
	// attribution sections are empty.
	Shards int
}

// workerCount resolves Options.Workers: 0 (the default) saturates the
// host.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// DefaultOptions returns the quick-turnaround configuration.
func DefaultOptions() Options {
	return Options{
		Sizes:    []int{2, 16, 64, 256, 1024, 4096, 16384, 65536},
		Iters:    200,
		Runs:     10,
		Nodes:    128,
		LinkGbps: []float64{100, 200, 400, 2000},
		Seed:     42,
		RunNoise: 0.02,
		Shards:   1,
	}
}

// PaperOptions returns settings matching the paper's stated scales. The
// motif node count is the paper's 8,192; expect long runtimes.
func PaperOptions() Options {
	o := DefaultOptions()
	o.Iters = 1000
	o.Nodes = 8192
	return o
}

// latencyFigure is the shared implementation of Figures 4 and 5.
func latencyFigure(o Options, prof hostif.Profile, figure, system string) *Table {
	t := &Table{
		Title: fmt.Sprintf("%s: RVMA vs. RDMA latency (%s, %s)", figure, prof.Name, system),
		Header: []string{"size", "RVMA(ns)", "±", "RDMA-static(ns)", "±",
			"RDMA-adaptive(ns)", "±", "reduction"},
	}
	maxRed := 0.0
	for _, size := range o.Sizes {
		cfg := microbench.LatencyConfig{
			Profile: prof, Size: size, Iters: o.Iters, Runs: o.Runs,
			Seed: o.Seed, RunNoise: o.RunNoise,
		}
		rv := microbench.MeasureLatency(cfg, microbench.TransportRVMA)
		rs := microbench.MeasureLatency(cfg, microbench.TransportRDMAStatic)
		ra := microbench.MeasureLatency(cfg, microbench.TransportRDMAAdaptive)
		red := stats.Reduction(ra.Summary.Mean, rv.Summary.Mean)
		if red > maxRed {
			maxRed = red
		}
		t.AddRow(
			stats.FormatBytes(size),
			fmt.Sprintf("%.1f", rv.Summary.Mean), fmt.Sprintf("%.1f", rv.Summary.Stddev),
			fmt.Sprintf("%.1f", rs.Summary.Mean), fmt.Sprintf("%.1f", rs.Summary.Stddev),
			fmt.Sprintf("%.1f", ra.Summary.Mean), fmt.Sprintf("%.1f", ra.Summary.Stddev),
			fmt.Sprintf("%.1f%%", 100*red),
		)
	}
	t.AddNote("reduction = (RDMA-adaptive - RVMA) / RDMA-adaptive; max observed %.1f%%", 100*maxRed)
	t.AddNote("RDMA-adaptive adds the specification-required 1-byte send/recv after the put")
	t.AddNote("%d runs x %d iterations per point; ± is inter-run stddev", o.Runs, o.Iters)
	return t
}

// Fig4 reproduces Figure 4: Verbs-profile latency (OmniPath/Skylake-class
// testbed). Paper headline: up to 65.8% latency reduction.
func Fig4(o Options) *Table {
	return latencyFigure(o, hostif.Verbs(), "Figure 4", "OmniPath+Skylake class")
}

// Fig5 reproduces Figure 5: UCX-profile latency (ConnectX-5/ThunderX2
// class testbed). Paper headline: 45.8% latency reduction.
func Fig5(o Options) *Table {
	return latencyFigure(o, hostif.UCX(), "Figure 5", "ConnectX-5+ThunderX2 class")
}

// Fig6 reproduces Figure 6: the UCX amortization analysis — how many data
// exchanges amortize the RDMA buffer-setup handshake to within 3% of
// steady-state latency, for static- and adaptive-routing latencies.
func Fig6(o Options) *Table {
	prof := hostif.UCX()
	t := &Table{
		Title: "Figure 6: UCX amortization analysis (exchanges to amortize RDMA setup to 3%)",
		Header: []string{"size", "setup(ns)", "lat-static(ns)", "N-static",
			"lat-adaptive(ns)", "N-adaptive"},
	}
	const tolerance = 0.03
	for _, size := range o.Sizes {
		st := microbench.Amortization(prof, size, microbench.TransportRDMAStatic, tolerance, o.Seed)
		ad := microbench.Amortization(prof, size, microbench.TransportRDMAAdaptive, tolerance, o.Seed)
		t.AddRow(
			stats.FormatBytes(size),
			fmt.Sprintf("%.0f", st.SetupNanos),
			fmt.Sprintf("%.0f", st.LatencyNanos), fmt.Sprintf("%d", st.Exchanges),
			fmt.Sprintf("%.0f", ad.LatencyNanos), fmt.Sprintf("%d", ad.Exchanges),
		)
	}
	t.AddNote("N = smallest exchange count with (setup + N*lat)/(N*lat) <= 1.03")
	t.AddNote("RVMA needs no setup exchange at all: its amortization count is identically zero")
	return t
}

// MicroSummary condenses the latency figures into the paper's headline
// claims table.
func MicroSummary(o Options) *Table {
	t := &Table{
		Title:  "Microbenchmark summary (paper §V-A headline claims)",
		Header: []string{"experiment", "paper", "this reproduction"},
	}
	for _, row := range []struct {
		prof  hostif.Profile
		name  string
		paper string
	}{
		{hostif.Verbs(), "Verbs max latency reduction", "65.8%"},
		{hostif.UCX(), "UCX max latency reduction", "45.8%"},
	} {
		cfg := microbench.LatencyConfig{
			Profile: row.prof, Size: 2, Iters: o.Iters, Runs: o.Runs,
			Seed: o.Seed, RunNoise: o.RunNoise,
		}
		rv := microbench.MeasureLatency(cfg, microbench.TransportRVMA)
		ra := microbench.MeasureLatency(cfg, microbench.TransportRDMAAdaptive)
		t.AddRow(row.name, row.paper,
			fmt.Sprintf("%.1f%%", 100*stats.Reduction(ra.Summary.Mean, rv.Summary.Mean)))
	}
	return t
}

// NotifyAblation compares the completion-observation mechanisms of §IV-C:
// Monitor/MWait wake-on-write versus memory polling on the RVMA path.
func NotifyAblation(o Options) *Table {
	t := &Table{
		Title:  "Ablation: completion notification mechanism (RVMA, verbs profile)",
		Header: []string{"mechanism", "latency(ns)"},
	}
	prof := hostif.Verbs()
	cfg := microbench.LatencyConfig{
		Profile: prof, Size: 64, Iters: o.Iters, Runs: 1, Seed: o.Seed,
	}
	cfg.Notification = rvma.NotifyMWait
	mwait := microbench.MeasureLatency(cfg, microbench.TransportRVMA)
	t.AddRow("Monitor/MWait", fmt.Sprintf("%.1f", mwait.Summary.Mean))
	cfg.Notification = rvma.NotifyPoll
	poll := microbench.MeasureLatency(cfg, microbench.TransportRVMA)
	t.AddRow(fmt.Sprintf("polling @%v", prof.NIC.PollInterval), fmt.Sprintf("%.1f", poll.Summary.Mean))
	t.AddNote("MWait wakes within %v of the completion-pointer write (§IV-C)", prof.NIC.MWaitWake)
	return t
}

// PCIeAblation shows the counter-spill penalty under current and Gen 6
// buses (§III-B: "For PCIe Gen 6+ this performance penalty is minimal").
func PCIeAblation(o Options) *Table {
	t := &Table{
		Title:  "Ablation: RVMA counter spill penalty by PCIe generation",
		Header: []string{"bus", "bus latency", "spill penalty (per counter update)"},
	}
	for _, row := range []struct {
		name string
		cfg  pcie.Config
	}{
		{"Gen4/5 x16", pcie.Gen4x16()},
		{"Gen6 x16", pcie.Gen6x16()},
	} {
		t.AddRow(row.name, row.cfg.Latency.String(), (2 * row.cfg.Latency).String())
	}
	t.AddNote("penalty = one host-memory read-modify-write round trip (2x bus latency)")
	t.AddNote("avoided entirely while NIC hardware counters are available (§III-B)")
	return t
}
