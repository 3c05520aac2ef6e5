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
//	rvmabench -json-out BENCH_sim.json fig7   # per-cell perf trajectory
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
	"runtime"
	"strconv"
	"strings"
	"time"

	"rvma/internal/harness"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 0, "motif system size in nodes (0 = default 128; paper used 8192)")
		iters       = flag.Int("iters", 0, "ping-pong iterations per run (0 = default 200)")
		runs        = flag.Int("runs", 0, "independent runs per latency point (0 = default 10)")
		seed        = flag.Uint64("seed", 0, "simulation seed (0 = default 42)")
		paper       = flag.Bool("paper", false, "use paper-scale settings (8192 nodes, 1000 iterations; slow)")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut     = flag.String("json-out", "", "write per-cell perf records (wall time, sim time, events/sec) as JSON to this file")
		telDir      = flag.String("telemetry-dir", "", "write one in-sim time-series CSV per motif cell into this directory")
		ledgerDir   = flag.String("ledger-dir", "", "write one execution-ledger JSON per motif cell into this directory (compare with simdiff)")
		workers     = flag.Int("workers", 0, "concurrent figure cells (0 = one per CPU); output is identical at any worker count")
		shards      = flag.Int("shards", 1, "partition each cell's simulation into N >= 1 lookahead-synchronized shards; output is identical at any shard count")
		dropRates   = flag.String("drop-rate", "", "comma-separated drop probabilities for the faults sweep (default 0.01,0.02,0.05,0.1)")
		retryBudget = flag.Int("retry-budget", 0, "max retransmits per op in the faults sweep (0 = recovery default)")
		tailK       = flag.Int("tail-k", 0, "worst-K depth of the latency-attribution tail exchange per cell (0 = default 8)")
	)
	flag.Parse()

	opt := harness.DefaultOptions()
	if *paper {
		opt = harness.PaperOptions()
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
	if *telDir != "" {
		if err := os.MkdirAll(*telDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rvmabench: %v\n", err)
			os.Exit(1)
		}
		opt.TelemetryDir = *telDir
	}
	if *ledgerDir != "" {
		if err := os.MkdirAll(*ledgerDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rvmabench: %v\n", err)
			os.Exit(1)
		}
		opt.LedgerDir = *ledgerDir
	}
	if *workers > 0 {
		opt.Workers = *workers
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "rvmabench: -shards must be at least 1, got %d\n", *shards)
		os.Exit(2)
	}
	opt.Shards = *shards
	if *dropRates != "" {
		for _, field := range strings.Split(*dropRates, ",") {
			rate, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil || rate < 0 || rate > 1 {
				fmt.Fprintf(os.Stderr, "rvmabench: bad -drop-rate entry %q (want a probability in [0, 1])\n", field)
				os.Exit(1)
			}
			opt.FaultRates = append(opt.FaultRates, rate)
		}
	}
	if *retryBudget > 0 {
		opt.RetryBudget = *retryBudget
	}
	if *tailK > 0 {
		opt.TailK = *tailK
	}
	if *jsonOut != "" {
		effective := opt.Workers
		if effective == 0 {
			effective = runtime.NumCPU()
		}
		opt.Bench = &harness.BenchLog{Workers: effective}
	}

	experiments := flag.Args()
	if len(experiments) == 0 {
		experiments = []string{"all"}
	}
	started := time.Now()

	var run func(name string) bool
	run = func(name string) bool {
		var tables []*harness.Table
		switch name {
		case "fig4":
			tables = []*harness.Table{harness.Fig4(opt)}
		case "fig5":
			tables = []*harness.Table{harness.Fig5(opt)}
		case "fig6":
			tables = []*harness.Table{harness.Fig6(opt)}
		case "fig7":
			tables = []*harness.Table{harness.Fig7(opt)}
		case "fig8":
			tables = []*harness.Table{harness.Fig8(opt)}
		case "incast":
			tables = []*harness.Table{harness.IncastTable(opt)}
		case "summary":
			tables = []*harness.Table{harness.MicroSummary(opt), harness.MotifSummary(opt)}
		case "collectives":
			tables = []*harness.Table{harness.CollectivesTable(opt)}
		case "matchengine":
			tables = []*harness.Table{harness.MatchEngineTable(opt)}
		case "faults":
			tables = []*harness.Table{harness.FaultSweep(opt)}
		case "kv":
			tables = []*harness.Table{harness.KVTable(opt)}
		case "ablations":
			tables = []*harness.Table{
				harness.NotifyAblation(opt),
				harness.PCIeAblation(opt),
				harness.RDMABuffersAblation(opt),
				harness.LastByteCheatAblation(opt),
			}
		case "all":
			return run("fig4") && run("fig5") && run("fig6") &&
				run("fig7") && run("fig8") && run("incast") &&
				run("collectives") && run("matchengine") &&
				run("summary") && run("ablations")
		default:
			fmt.Fprintf(os.Stderr, "rvmabench: unknown experiment %q\n", name)
			fmt.Fprintln(os.Stderr, "experiments: fig4 fig5 fig6 fig7 fig8 incast collectives matchengine faults kv summary ablations all")
			return false
		}
		for _, t := range tables {
			if *csv {
				t.CSV(os.Stdout)
			} else {
				t.Fprint(os.Stdout)
			}
		}
		return true
	}

	for _, name := range experiments {
		if !run(name) {
			os.Exit(2)
		}
	}

	if *jsonOut != "" {
		opt.Bench.Elapsed = time.Since(started)
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rvmabench: %v\n", err)
			os.Exit(1)
		}
		if err := opt.Bench.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "rvmabench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rvmabench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rvmabench: wrote %d cell records to %s\n",
			len(opt.Bench.Records), *jsonOut)
	}
}
