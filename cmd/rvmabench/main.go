// Command rvmabench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	rvmabench [flags] [experiment...]
//
// Experiments: fig4 fig5 fig6 fig7 fig8 incast collectives matchengine
// faults kv summary ablations all
// (default: all; "faults" — the loss-rate × transport recovery sweep — and
// "kv" — the keyed-mailbox dataplane skew × load × transport sweep — run
// only when named explicitly).
//
// Examples:
//
//	rvmabench fig4
//	rvmabench -nodes 1024 fig7
//	rvmabench -paper all        # paper-scale settings (slow)
//	rvmabench -csv fig6 > fig6.csv
//	rvmabench -telemetry-dir ts/ fig7         # per-cell time-series CSVs
//	rvmabench -ledger-dir led/ fig7           # per-cell execution ledgers
//	rvmabench -workers 4 fig7                 # parallel cells, same bytes out
//	rvmabench -shards 4 -nodes 1024 fig7      # sharded engine, same bytes out
//	rvmabench faults                          # loss sweep at default rates
//	rvmabench -drop-rate 0.05 -retry-budget 4 faults   # one rate, tight budget
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rvma/internal/harness"
)

// experiments maps each experiment name to the tables it prints.
var experiments = map[string]func(harness.Options) []*harness.Table{
	"fig4":        func(o harness.Options) []*harness.Table { return []*harness.Table{harness.Fig4(o)} },
	"fig5":        func(o harness.Options) []*harness.Table { return []*harness.Table{harness.Fig5(o)} },
	"fig6":        func(o harness.Options) []*harness.Table { return []*harness.Table{harness.Fig6(o)} },
	"fig7":        func(o harness.Options) []*harness.Table { return []*harness.Table{harness.Fig7(o)} },
	"fig8":        func(o harness.Options) []*harness.Table { return []*harness.Table{harness.Fig8(o)} },
	"incast":      func(o harness.Options) []*harness.Table { return []*harness.Table{harness.IncastTable(o)} },
	"collectives": func(o harness.Options) []*harness.Table { return []*harness.Table{harness.CollectivesTable(o)} },
	"matchengine": func(o harness.Options) []*harness.Table { return []*harness.Table{harness.MatchEngineTable(o)} },
	"faults":      func(o harness.Options) []*harness.Table { return []*harness.Table{harness.FaultSweep(o)} },
	"kv":          func(o harness.Options) []*harness.Table { return []*harness.Table{harness.KVTable(o)} },
	"summary": func(o harness.Options) []*harness.Table {
		return []*harness.Table{harness.MicroSummary(o), harness.MotifSummary(o)}
	},
	"ablations": func(o harness.Options) []*harness.Table {
		return []*harness.Table{
			harness.NotifyAblation(o),
			harness.PCIeAblation(o),
			harness.RDMABuffersAblation(o),
			harness.LastByteCheatAblation(o),
		}
	},
}

// all is what "all", and no experiment at all, runs.
var all = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "incast", "collectives", "matchengine", "summary", "ablations"}

// usageError reports a bad flag or experiment name and exits 2, before
// any experiment runs.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rvmabench: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		nodes       = flag.Int("nodes", 0, "motif system size in nodes (0 = default 128; paper used 8192)")
		iters       = flag.Int("iters", 0, "ping-pong iterations per run (0 = default 200)")
		runs        = flag.Int("runs", 0, "independent runs per latency point (0 = default 10)")
		seed        = flag.Uint64("seed", 0, "simulation seed (0 = default 42)")
		paper       = flag.Bool("paper", false, "use paper-scale settings (8192 nodes, 1000 iterations; slow)")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned text")
		telDir      = flag.String("telemetry-dir", "", "write one in-sim time-series CSV per motif cell into this directory")
		ledgerDir   = flag.String("ledger-dir", "", "write one execution-ledger JSON per motif cell into this directory (compare with simdiff)")
		workers     = flag.Int("workers", 0, "concurrent figure cells (0 = one per CPU); output is identical at any worker count")
		shards      = flag.Int("shards", 1, "partition each cell's simulation into N >= 1 lookahead-synchronized shards; output is identical at any shard count")
		dropRates   = flag.String("drop-rate", "", "comma-separated drop probabilities for the faults sweep (default 0.01,0.02,0.05,0.1)")
		retryBudget = flag.Int("retry-budget", 0, "max retransmits per op in the faults sweep (0 = recovery default)")
		tailK       = flag.Int("tail-k", 0, "worst-K depth of the latency-attribution tail exchange per cell (0 = default 8)")
	)
	flag.Parse()

	for _, f := range []struct {
		name string
		v    int
	}{{"nodes", *nodes}, {"iters", *iters}, {"runs", *runs}, {"workers", *workers}, {"retry-budget", *retryBudget}, {"tail-k", *tailK}} {
		if f.v < 0 {
			usageError("-%s must not be negative, got %d", f.name, f.v)
		}
	}
	if *shards < 1 {
		usageError("-shards must be at least 1, got %d", *shards)
	}
	opt := harness.DefaultOptions()
	if *paper {
		opt = harness.PaperOptions()
	}
	if *dropRates != "" {
		for _, field := range strings.Split(*dropRates, ",") {
			rate, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil || !(rate >= 0 && rate <= 1) {
				usageError("bad -drop-rate entry %q (want a probability in [0, 1])", field)
			}
			opt.FaultRates = append(opt.FaultRates, rate)
		}
	}
	names := flag.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	var run []string
	for _, name := range names {
		switch {
		case name == "all":
			run = append(run, all...)
		case experiments[name] != nil:
			run = append(run, name)
		default:
			usageError("unknown experiment %q\nexperiments: fig4 fig5 fig6 fig7 fig8 incast collectives matchengine faults kv summary ablations all", name)
		}
	}

	if *nodes > 0 {
		opt.Nodes = *nodes
	}
	if *iters > 0 {
		opt.Iters = *iters
	}
	if *runs > 0 {
		opt.Runs = *runs
	}
	if *seed > 0 {
		opt.Seed = *seed
	}
	opt.Workers = *workers
	opt.Shards = *shards
	opt.RetryBudget = *retryBudget
	opt.TailK = *tailK
	for _, dir := range []string{*telDir, *ledgerDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rvmabench: %v\n", err)
			os.Exit(1)
		}
	}
	opt.TelemetryDir, opt.LedgerDir = *telDir, *ledgerDir

	for _, name := range run {
		for _, t := range experiments[name](opt) {
			if *csv {
				t.CSV(os.Stdout)
			} else {
				t.Fprint(os.Stdout)
			}
		}
	}
}
