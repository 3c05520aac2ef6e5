package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rvma/internal/hostif"
	"rvma/internal/ledger"
	"rvma/internal/sim"
	"rvma/internal/stats"
)

// The §V-A latency claims, measured on the pingpong and setup cells.

// quickOptions keep latency tests fast: 50 round trips, 3 noiseless runs.
func quickOptions() Options {
	o := DefaultOptions()
	o.Iters, o.Runs, o.Seed, o.RunNoise = 50, 3, 7, 0
	return o
}

// latency summarizes o's runs of one column at one size on prof's testbed.
func latency(t *testing.T, o Options, prof hostif.Profile, size int, col pingPongColumn) stats.Summary {
	t.Helper()
	sums, err := latencySummaries(o, o.pingPongSpecs(prof, []int{size}, []pingPongColumn{col}))
	if err != nil {
		t.Fatal(err)
	}
	return sums[0]
}

// hostCell runs one host-profile cell and fails the test on error.
func hostCell(t *testing.T, rs ledger.RunSpec) CellOutput {
	t.Helper()
	out := RunCell(rs, Observers{})
	if out.Err != nil {
		t.Fatalf("%s: %v", cellName(rs), out.Err)
	}
	return out
}

func TestLatencyOrderingVerbs(t *testing.T) {
	// The core Figure 4 invariant: RVMA <= RDMA-static < RDMA-adaptive.
	o, prof := quickOptions(), hostif.Verbs()
	rv := latency(t, o, prof, 64, colRVMA)
	rs := latency(t, o, prof, 64, colRDMAStatic)
	ra := latency(t, o, prof, 64, colRDMAAdaptive)
	if !(rv.Mean <= rs.Mean) {
		t.Fatalf("RVMA (%.0fns) should not lose to RDMA-static (%.0fns)", rv.Mean, rs.Mean)
	}
	if !(rs.Mean < ra.Mean) {
		t.Fatalf("RDMA-adaptive (%.0fns) must cost more than static (%.0fns)", ra.Mean, rs.Mean)
	}
}

// reduction is the latency figures' reduction column at one size.
func reduction(t *testing.T, prof hostif.Profile, size int) float64 {
	t.Helper()
	o := quickOptions()
	return stats.Reduction(latency(t, o, prof, size, colRDMAAdaptive).Mean, latency(t, o, prof, size, colRVMA).Mean)
}

func TestHeadlineReductions(t *testing.T) {
	// Paper: up to 65.8% (Verbs) and 45.8% (UCX) latency reduction. The
	// reproduction must land in the same band and preserve Verbs > UCX.
	verbs := reduction(t, hostif.Verbs(), 2)
	ucx := reduction(t, hostif.UCX(), 2)
	if verbs < 0.50 || verbs > 0.75 {
		t.Fatalf("verbs reduction %.1f%%, want in the 50-75%% band around the paper's 65.8%%", 100*verbs)
	}
	if ucx < 0.35 || ucx > 0.55 {
		t.Fatalf("ucx reduction %.1f%%, want in the 35-55%% band around the paper's 45.8%%", 100*ucx)
	}
	if verbs <= ucx {
		t.Fatalf("verbs reduction (%.1f%%) must exceed ucx (%.1f%%) as in the paper", 100*verbs, 100*ucx)
	}
}

func TestReductionShrinksWithSize(t *testing.T) {
	// The latency curves converge at large sizes: the fixed completion
	// overhead amortizes against serialization.
	if small, big := reduction(t, hostif.Verbs(), 2), reduction(t, hostif.Verbs(), 65536); big >= small {
		t.Fatalf("reduction should shrink with size: %.1f%% @2B vs %.1f%% @64KiB", 100*small, 100*big)
	}
}

func TestRunNoiseProducesErrorBars(t *testing.T) {
	o := quickOptions()
	o.Runs = 6
	if res := latency(t, o, hostif.UCX(), 1024, colRVMA); res.Stddev > 1e-6 {
		t.Fatalf("no noise should mean (numerically) zero stddev, got %v", res.Stddev)
	}
	o.RunNoise = 0.05
	if res := latency(t, o, hostif.UCX(), 1024, colRVMA); res.Stddev < 1 {
		t.Fatalf("run noise should produce visible inter-run stddev, got %v", res.Stddev)
	}
}

func TestLatencyDeterministic(t *testing.T) {
	o := quickOptions()
	a := latency(t, o, hostif.Verbs(), 256, colRDMAAdaptive)
	b := latency(t, o, hostif.Verbs(), 256, colRDMAAdaptive)
	if a.Mean != b.Mean {
		t.Fatalf("same seed must reproduce: %v vs %v", a.Mean, b.Mean)
	}
}

func TestLatencyRejectsBadShapes(t *testing.T) {
	o := quickOptions()
	o.Runs = 0
	if _, err := latencySummaries(o, o.pingPongSpecs(hostif.Verbs(), []int{64}, []pingPongColumn{colRVMA})); err == nil {
		t.Fatal("zero runs should error")
	}
	rs := quickOptions().hostSpec(MotifPingPong, hostif.Verbs(), colRVMA, -1)
	var se *SpecError
	if out := RunCell(rs, Observers{}); !errors.As(out.Err, &se) || se.Field != "size" {
		t.Fatalf("negative size: %v, want a size SpecError", out.Err)
	}
}

func TestSetupCost(t *testing.T) {
	o := DefaultOptions()
	o.Seed = 1
	setup := func(size int) sim.Time {
		rs := o.hostSpec(MotifSetup, hostif.UCX(), pingPongColumn{transport: "rdma", routing: colRDMAStatic.routing}, size)
		return hostCell(t, rs).Makespan
	}
	small, big := setup(4096), setup(1<<22)
	if small <= 0 {
		t.Fatal("setup cost must be positive")
	}
	if big <= small {
		t.Fatalf("registering 4MiB (%v) must cost more than 4KiB (%v): page pinning", big, small)
	}
	rs := o.hostSpec(MotifSetup, hostif.UCX(), colRVMA, 4096)
	if out := hostCell(t, rs); out.Makespan != 0 {
		t.Fatalf("RVMA setup = %v, want none", out.Makespan)
	}
}

// amortization is one Figure 6 sample at seed 1 on the UCX testbed: RDMA
// setup under col's routing, the steady-state one-way latency of 200
// round trips, and the exchange count.
func amortization(t *testing.T, size int, col pingPongColumn) (setup, lat sim.Time, n int) {
	t.Helper()
	o := DefaultOptions()
	o.Seed, o.Iters = 1, 200
	prof := hostif.UCX()
	rs := o.hostSpec(MotifSetup, prof, col, size)
	rs.Iters = 0
	setup = hostCell(t, rs).Makespan
	lat = oneWay(hostCell(t, o.hostSpec(MotifPingPong, prof, col, size)))
	return setup, lat, exchanges(setup, lat)
}

func TestAmortization(t *testing.T) {
	setup, lat, n := amortization(t, 64, colRDMAAdaptive)
	_, _, nBig := amortization(t, 65536, colRDMAAdaptive)
	if n < 10 {
		t.Fatalf("small messages need many exchanges to amortize setup, got %d", n)
	}
	if nBig >= n {
		t.Fatalf("amortization count must fall with size: %d @64B vs %d @64KiB", n, nBig)
	}
	// Cross-check the formula: N-1 exchanges must NOT satisfy the bound.
	overhead := func(k int) float64 {
		return (setup.Nanoseconds() + float64(k)*lat.Nanoseconds()) / (float64(k) * lat.Nanoseconds())
	}
	if overhead(n) > 1.03 {
		t.Fatalf("N=%d does not satisfy the 3%% bound", n)
	}
	if n > 1 && overhead(n-1) <= 1.03 {
		t.Fatalf("N=%d is not minimal", n)
	}
}

func TestAmortizationStaticNeedsMoreExchanges(t *testing.T) {
	// Static-routing latency is lower, so the same setup cost takes MORE
	// exchanges to amortize — the visible gap between Figure 6's curves.
	_, _, st := amortization(t, 1024, colRDMAStatic)
	_, _, ad := amortization(t, 1024, colRDMAAdaptive)
	if st <= ad {
		t.Fatalf("static N (%d) should exceed adaptive N (%d)", st, ad)
	}
}

// TestRDMAAdaptivePenaltyDecomposition verifies the structural identity
// behind Figures 4/5: the RDMA-adaptive completion observed at the target
// happens strictly after (a) all data landed and (b) one extra wire
// crossing, and the penalty versus RVMA is positive at every size.
func TestRDMAAdaptivePenaltyDecomposition(t *testing.T) {
	prof := hostif.Verbs()
	o := DefaultOptions()
	o.Iters, o.Runs, o.Seed, o.RunNoise = 20, 1, 3, 0
	for _, size := range []int{2, 512, 8192, 65536} {
		penalty := latency(t, o, prof, size, colRDMAAdaptive).Mean - latency(t, o, prof, size, colRVMA).Mean
		if penalty <= 0 {
			t.Fatalf("size %d: non-positive adaptive penalty %.1fns", size, penalty)
		}
		// The penalty must exceed one link crossing of a 1-byte message
		// (the fence send's irreducible wire time) at every size.
		minPenalty := (prof.Fabric.LinkLatency * 2).Nanoseconds()
		if penalty < minPenalty {
			t.Fatalf("size %d: penalty %.1fns below the irreducible fence cost %.1fns",
				size, penalty, minPenalty)
		}
	}
}

// TestHostCellReplays checks a noisy ping-pong cell's ledger carries
// everything the cell needs: replaying its embedded spec reaches the
// recorded chain head.
func TestHostCellReplays(t *testing.T) {
	o := DefaultOptions()
	o.Iters, o.Runs, o.LedgerDir = 20, 2, t.TempDir()
	specs := o.pingPongSpecs(hostif.UCX(), []int{4096}, []pingPongColumn{colRDMAAdaptive})
	rs := specs[1]
	if rs.HostScale == 0 || rs.HostScale == 1 {
		t.Fatalf("run 1 host scale %g, want a noise draw", rs.HostScale)
	}
	out := runOneCell(o, rs, nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	var l ledger.Ledger
	if err := json.Unmarshal(out.Ledger, &l); err != nil {
		t.Fatal(err)
	}
	if l.Run == nil || *l.Run != rs {
		t.Fatalf("ledger embeds %+v, want %+v", l.Run, rs)
	}
	replay, _, err := ReplaySpec(&l, ReplayOptions{EpochEvents: l.EpochEvents})
	if err != nil {
		t.Fatal(err)
	}
	if replay.ChainHead != l.ChainHead || replay.Events != l.Events {
		t.Fatalf("replay chain head %s (%d events), recorded %s (%d events)",
			replay.ChainHead, replay.Events, l.ChainHead, l.Events)
	}
}

// TestCellNamesUniqueWithinEachSweep runs every table at tiny scale into
// one ledger directory and checks the names ledger and telemetry files
// take: no two cells of a table share one, and across tables a name
// always stands for the same cell, so its ledger bytes are the same.
func TestCellNamesUniqueWithinEachSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table")
	}
	t.Parallel()
	o := tinyOptions()
	o.LinkGbps, o.Runs, o.RunNoise = []float64{100}, 3, 0.02
	o.LedgerDir = t.TempDir()
	noiseless := o
	noiseless.RunNoise = 0
	ledgers := map[string][]byte{}
	for _, table := range []struct {
		name string
		run  func() *Table
	}{
		{"fig4", func() *Table { return Fig4(o) }},
		{"fig4-noiseless", func() *Table { return Fig4(noiseless) }},
		{"fig5", func() *Table { return Fig5(o) }},
		{"fig6", func() *Table { return Fig6(o) }},
		{"fig7", func() *Table { return Fig7(o) }},
		{"fig8", func() *Table { return Fig8(o) }},
		{"incast", func() *Table { return IncastTable(o) }},
		{"collectives", func() *Table { return CollectivesTable(o) }},
		{"micro-summary", func() *Table { return MicroSummary(o) }},
		{"motif-summary", func() *Table { return MotifSummary(o) }},
		{"notify", func() *Table { return NotifyAblation(o) }},
		{"rdma-buffers", func() *Table { return RDMABuffersAblation(o) }},
		{"last-byte", func() *Table { return LastByteCheatAblation(o) }},
		{"faults", func() *Table { return FaultSweep(o) }},
		{"kv", func() *Table { return KVTable(o) }},
	} {
		var cells []string
		o.flushed = func(cell string) { cells = append(cells, cell) }
		noiseless.flushed = o.flushed
		table.run()
		if len(cells) == 0 {
			t.Errorf("%s: no cells ran", table.name)
		}
		seen := map[string]bool{}
		for _, cell := range cells {
			if seen[cell] {
				t.Errorf("%s: two cells named %s", table.name, cell)
			}
			seen[cell] = true
			b, err := os.ReadFile(filepath.Join(o.LedgerDir, ledgerFileName(cell)))
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := ledgers[cell]; ok && !bytes.Equal(prev, b) {
				t.Errorf("%s: %s names two different cells", table.name, cell)
			}
			ledgers[cell] = b
		}
	}
}
