package harness

import (
	"cmp"
	"fmt"
	"runtime"

	"rvma/internal/fabric"
	"rvma/internal/hostif"
	"rvma/internal/ledger"
	"rvma/internal/pcie"
	"rvma/internal/sim"
	"rvma/internal/stats"
	"rvma/internal/topology"
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
	// flushed, when set, is called with each cell's name as the serial
	// merge phase flushes its outputs; tests list a sweep's cells with it.
	flushed func(cell string)
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

// pingPongColumn is one §V-A latency measurement: a transport, the routing
// that decides RDMA's completion scheme, last-byte polling, and how RVMA's
// host observes completions.
type pingPongColumn struct {
	transport string
	routing   fabric.RoutingMode
	lastByte  bool
	notify    string
}

// The latency figures' columns: RVMA, RDMA polling the last byte on a
// byte-ordered network, and RDMA with the specification-required trailing
// send/recv on an adaptive one.
var (
	colRVMA         = pingPongColumn{transport: "rvma", routing: fabric.RouteAdaptive}
	colRDMAStatic   = pingPongColumn{transport: "rdma", routing: fabric.RouteStatic, lastByte: true}
	colRDMAAdaptive = pingPongColumn{transport: "rdma", routing: fabric.RouteAdaptive}
)

// hostSpec describes one §V-A cell: motif m over col on prof's two-node
// single-switch testbed, with size-byte messages and o.Iters round trips.
func (o Options) hostSpec(m MotifName, prof hostif.Profile, col pingPongColumn, size int) ledger.RunSpec {
	nc := NetConfig{"single/" + col.routing.String(), topology.KindSingleSwitch, col.routing}
	rs := o.spec(m, col.transport, nc, prof.Fabric.LinkGbps)
	rs.Nodes, rs.Host, rs.Size, rs.Iters, rs.Notify, rs.LastByte = 2, prof.Name, size, o.Iters, col.notify, col.lastByte
	return rs
}

// pingPongSpecs describes o.Runs runs of every column at every size on
// prof's testbed, ordered size, column, run. Run r has seed
// o.Seed + r*1000003 and, as host scale, the r-th draw of the run-to-run
// noise; every point sees the same draws.
func (o Options) pingPongSpecs(prof hostif.Profile, sizes []int, cols []pingPongColumn) []ledger.RunSpec {
	scales := make([]float64, max(o.Runs, 0))
	if o.RunNoise > 0 {
		noise := sim.NewRNG(o.Seed ^ 0x9E3779B97F4A7C15)
		for r := range scales {
			scales[r] = max(noise.Normal(1, o.RunNoise), 0.5)
		}
	}
	var specs []ledger.RunSpec
	for _, size := range sizes {
		for _, col := range cols {
			for r, scale := range scales {
				rs := o.hostSpec(MotifPingPong, prof, col, size)
				rs.Seed += uint64(r) * 1000003
				rs.HostScale = scale
				specs = append(specs, rs)
			}
		}
	}
	return specs
}

// oneWay is a pingpong cell's mean one-way latency.
func oneWay(out CellOutput) sim.Time { return out.Makespan / sim.Time(2*pingPongIters(out.Spec)) }

// latencySummaries runs pingPongSpecs' cells and summarizes each point's
// runs' mean one-way latencies in nanoseconds: one Summary per (size,
// column), in spec order.
func latencySummaries(o Options, specs []ledger.RunSpec) ([]stats.Summary, error) {
	if o.Runs < 1 || o.Iters < 1 {
		return nil, fmt.Errorf("harness: latency points need Runs and Iters of at least 1, got %d and %d", o.Runs, o.Iters)
	}
	outs := runFigureCells(o, specs, false)
	var sums []stats.Summary
	for i := 0; i < len(outs); i += o.Runs {
		ns := make([]float64, o.Runs)
		for r, out := range outs[i : i+o.Runs] {
			if err := flushCellOutput(o, out); err != nil {
				return nil, fmt.Errorf("%s: %w", cellName(out.Spec), err)
			}
			ns[r] = oneWay(out).Nanoseconds()
		}
		sums = append(sums, stats.Summarize(ns))
	}
	return sums, nil
}

// latencyFigure is the shared implementation of Figures 4 and 5.
func latencyFigure(o Options, prof hostif.Profile, figure, system string) *Table {
	t := &Table{
		Title: fmt.Sprintf("%s: RVMA vs. RDMA latency (%s, %s)", figure, prof.Name, system),
		Header: []string{"size", "RVMA(ns)", "±", "RDMA-static(ns)", "±",
			"RDMA-adaptive(ns)", "±", "reduction"},
	}
	sums, err := latencySummaries(o, o.pingPongSpecs(prof, o.Sizes, []pingPongColumn{colRVMA, colRDMAStatic, colRDMAAdaptive}))
	if err != nil {
		t.AddNote("SKIPPED: %v", err)
		return t
	}
	maxRed := 0.0
	for i, size := range o.Sizes {
		rv, rs, ra := sums[3*i], sums[3*i+1], sums[3*i+2]
		red := stats.Reduction(ra.Mean, rv.Mean)
		if red > maxRed {
			maxRed = red
		}
		t.AddRow(
			stats.FormatBytes(size),
			fmt.Sprintf("%.1f", rv.Mean), fmt.Sprintf("%.1f", rv.Stddev),
			fmt.Sprintf("%.1f", rs.Mean), fmt.Sprintf("%.1f", rs.Stddev),
			fmt.Sprintf("%.1f", ra.Mean), fmt.Sprintf("%.1f", ra.Stddev),
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

// exchanges is Figure 6's amortization count: the smallest N with
// (setup + N*lat) / (N*lat) <= 1.03, i.e. N >= setup / (0.03 * lat); 3% is
// "the margin of error for our latency tests".
func exchanges(setup, lat sim.Time) int {
	return int(float64(setup)/(0.03*float64(lat))) + 1
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
	// Per size: the setup handshake, then one noiseless run of 200 round
	// trips per RDMA column.
	o.Iters, o.Runs, o.RunNoise = 200, 1, 0
	var specs []ledger.RunSpec
	for _, size := range o.Sizes {
		setup := o.hostSpec(MotifSetup, prof, pingPongColumn{transport: "rdma", routing: fabric.RouteStatic}, size)
		setup.Iters = 0
		specs = append(append(specs, setup), o.pingPongSpecs(prof, []int{size}, []pingPongColumn{colRDMAStatic, colRDMAAdaptive})...)
	}
	outs := runFigureCells(o, specs, false)
	for i := 0; i < len(outs); i += 3 {
		size := stats.FormatBytes(outs[i].Spec.Size)
		if err := cmp.Or(flushCellOutput(o, outs[i]), flushCellOutput(o, outs[i+1]), flushCellOutput(o, outs[i+2])); err != nil {
			t.AddNote("SKIPPED %s: %v", size, err)
			continue
		}
		setup, st, ad := outs[i].Makespan, oneWay(outs[i+1]), oneWay(outs[i+2])
		t.AddRow(size, fmt.Sprintf("%.0f", setup.Nanoseconds()),
			fmt.Sprintf("%.0f", st.Nanoseconds()), fmt.Sprintf("%d", exchanges(setup, st)),
			fmt.Sprintf("%.0f", ad.Nanoseconds()), fmt.Sprintf("%d", exchanges(setup, ad)))
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
		sums, err := latencySummaries(o, o.pingPongSpecs(row.prof, []int{2}, []pingPongColumn{colRVMA, colRDMAAdaptive}))
		if err != nil {
			t.AddRow(row.name, row.paper, "SKIPPED")
			continue
		}
		t.AddRow(row.name, row.paper, fmt.Sprintf("%.1f%%", 100*stats.Reduction(sums[1].Mean, sums[0].Mean)))
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
	o.Runs, o.RunNoise = 1, 0
	poll := colRVMA
	poll.notify = "poll"
	sums, err := latencySummaries(o, o.pingPongSpecs(prof, []int{64}, []pingPongColumn{colRVMA, poll}))
	if err != nil {
		t.AddNote("SKIPPED: %v", err)
		return t
	}
	t.AddRow("Monitor/MWait", fmt.Sprintf("%.1f", sums[0].Mean))
	t.AddRow(fmt.Sprintf("polling @%v", prof.NIC.PollInterval), fmt.Sprintf("%.1f", sums[1].Mean))
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
