package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"rvma/internal/attrib"
	"rvma/internal/ledger"
	"rvma/internal/metrics"
	"rvma/internal/motif"
	"rvma/internal/telemetry"
)

// This file is the harness's worker-pool cell runner. A figure sweep is
// hundreds of independent simulations; the runner executes them on
// Options.Workers goroutines and hands the results back in the order the
// cells were specified, so the tables, telemetry files and ledgers a sweep
// produces are byte-identical at any worker count.
//
// The pool is host-side orchestration, not model code: each cell builds
// its own shard group, metrics.Registry and telemetry.ShardSet inside its
// worker, shares no mutable state with any other cell, and performs no
// file I/O — cells render into buffers, and the (serial) merge phase does
// all writing. The determinism lint's one-goroutine rule applies to model
// packages; the harness is exempt precisely because the goroutines here
// never touch an engine that another goroutine can see.

// spec describes one figure cell at the options' node count, seed and
// shard count.
func (o Options) spec(m MotifName, transport string, nc NetConfig, gbps float64) ledger.RunSpec {
	return ledger.RunSpec{
		Motif:     string(m),
		Transport: transport,
		Topology:  string(nc.Kind),
		Routing:   nc.Routing.String(),
		Network:   nc.Name,
		Nodes:     o.Nodes,
		Gbps:      gbps,
		Seed:      o.Seed,
		Shards:    o.Shards,
	}
}

// runOneCell runs a figure cell against the given registry with the
// instrumentation the options ask for, and renders its telemetry and
// ledger into the output. It opens no files and touches no
// state outside its arguments.
func runOneCell(o Options, rs ledger.RunSpec, reg *metrics.Registry) CellOutput {
	obs := Observers{Metrics: reg}
	if reg.SpansEnabled() {
		obs.Attrib = attrib.NewCollector(o.TailK)
	}
	var samples *telemetry.ShardSet
	if o.TelemetryDir != "" {
		obs.SampleEvery = cellSampleInterval
		obs.Attach = func(_ *motif.Cluster, s *telemetry.ShardSet) { samples = s }
	}
	if o.LedgerDir != "" {
		obs.Ledger = ledger.NewCanonicalRecorder(ledger.Options{Run: &rs})
	}
	out := RunCell(rs, obs)
	out.Reg, out.Attrib = reg, obs.Attrib
	if out.Err != nil {
		return out
	}
	if samples != nil {
		var buf bytes.Buffer
		if err := samples.WriteCSV(&buf); err != nil {
			out.Err = err
			return out
		}
		out.Telemetry = buf.Bytes()
	}
	if obs.Ledger != nil {
		b, err := obs.Ledger.Finalize().Marshal()
		if err != nil {
			out.Err = err
			return out
		}
		out.Ledger = b
	}
	return out
}

// runFigureCells runs every figure cell through runOneCell — each with
// its own shard group and telemetry — on Options.workerCount()
// goroutines. withMetrics gives each cell its own registry too, for the
// tables that read per-cell metrics; spans make a cell several times
// slower, so the others run without.
func runFigureCells(o Options, specs []ledger.RunSpec, withMetrics bool) []CellOutput {
	return runPool(o.workerCount(), specs, func(rs ledger.RunSpec) CellOutput {
		var reg *metrics.Registry
		if withMetrics {
			reg = newCellRegistry(o.Shards)
		}
		return runOneCell(o, rs, reg)
	})
}

// RunCells runs every spec with no observers attached on up to workers
// goroutines (0 means one per CPU) and returns the outputs in spec order,
// so they are identical at any worker count.
func RunCells(specs []ledger.RunSpec, workers int) []CellOutput {
	return runFigureCells(Options{Workers: workers}, specs, false)
}

// runPool is the worker pool: it runs every spec on up to workers
// goroutines and returns the outputs indexed like specs, independent of
// completion order. With one worker (or one cell) it runs inline; the
// outputs are identical either way.
func runPool(workers int, specs []ledger.RunSpec, run func(ledger.RunSpec) CellOutput) []CellOutput {
	out := make([]CellOutput, len(specs))
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		for i, s := range specs {
			out[i] = run(s)
		}
		return out
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = run(specs[i])
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// flushCellOutput applies one successful cell's deferred side effects —
// its telemetry and ledger files — during the serial merge phase. This is
// the only place a cell's outputs touch the filesystem.
func flushCellOutput(o Options, out CellOutput) error {
	if out.Err != nil {
		return out.Err
	}
	if o.flushed != nil {
		o.flushed(cellName(out.Spec))
	}
	if out.Telemetry != nil {
		name := telemetryFileName(cellName(out.Spec))
		if err := os.WriteFile(filepath.Join(o.TelemetryDir, name), out.Telemetry, 0o644); err != nil {
			return err
		}
	}
	if out.Ledger != nil {
		name := ledgerFileName(cellName(out.Spec))
		if err := os.WriteFile(filepath.Join(o.LedgerDir, name), out.Ledger, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// telemetryFileName flattens a cell name into a file name.
func telemetryFileName(cell string) string {
	return strings.NewReplacer("/", "-", "|", "_").Replace(cell) + ".csv"
}

// ledgerFileName flattens a cell name into a ledger file name.
func ledgerFileName(cell string) string {
	return strings.NewReplacer("/", "-", "|", "_").Replace(cell) + ".ledger.json"
}
