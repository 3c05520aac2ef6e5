package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"rvma/internal/attrib"
	"rvma/internal/ledger"
	"rvma/internal/metrics"
	"rvma/internal/motif"
	"rvma/internal/recovery"
	"rvma/internal/sim"
)

// This file is the harness's worker-pool cell runner. A figure sweep is
// hundreds of independent simulations; the runner executes them on
// Options.Workers goroutines and hands the results back in the order the
// cells were specified, so the tables, bench records and telemetry files a
// sweep produces are byte-identical at any worker count.
//
// The pool is host-side orchestration, not model code: each cell builds
// its own shard group, metrics.Registry and telemetry.ShardSet inside its
// worker, shares no mutable state with any other cell, and performs no
// file I/O — cells render into buffers, and the (serial) merge phase does
// all writing. The determinism lint's one-goroutine rule applies to model
// packages; the harness is exempt precisely because the goroutines here
// never touch an engine that another goroutine can see.

// cellSpec names one figure cell: a (motif, transport, network, link
// speed) point of a sweep, optionally under fault injection.
type cellSpec struct {
	M    MotifName
	Kind motif.TransportKind
	NC   NetConfig
	Gbps float64
	// Fault configures loss injection and recovery for this cell; the
	// zero value is the default lossless run.
	Fault faultSpec
	// KV parameterizes the KV dataplane workload; consulted only when M is
	// MotifKV.
	KV KVParams
}

// faultSpec is a cell's loss/recovery configuration.
type faultSpec struct {
	// Drop is the uniform receiver-ingress drop probability.
	Drop float64
	// Recover enables the recovery layer (timeout/retransmit).
	Recover bool
	// Budget overrides recovery.DefaultConfig's MaxRetries when > 0.
	Budget int
}

// cellName labels the spec for bench records and telemetry file names.
func (s cellSpec) cellName() string {
	name := cellName(s.M, s.NC, s.Kind, s.Gbps)
	if s.M == MotifKV {
		name += fmt.Sprintf("|skew%g|gap%gns", s.KV.Skew, s.KV.GapNs)
	}
	if s.Fault.Drop > 0 {
		name += fmt.Sprintf("|drop%g", s.Fault.Drop)
		if s.Fault.Recover {
			name += "|rec"
		}
	}
	return name
}

// cellOutput is everything one cell run produces. Side-effect-free: the
// telemetry CSV is rendered to memory and the bench record is detached,
// so the merge phase can apply them in canonical order.
type cellOutput struct {
	Spec     cellSpec
	Makespan sim.Time
	Err      error
	Reg      *metrics.Registry
	// Telemetry is the rendered per-cell time-series CSV (nil unless
	// Options.TelemetryDir is set).
	Telemetry []byte
	// Bench is the cell's perf sample (nil unless Options.Bench is set).
	Bench *BenchRecord
	// Recovery aggregates the cell's recovery-layer counters (zero when
	// recovery was disabled). Populated even when the run errored, so a
	// deadlocked cell still reports what it managed.
	Recovery recovery.Stats
	// Ranks is the cluster size actually built (topology rounding can
	// exceed Options.Nodes); fault tables derive goodput from it.
	Ranks int
	// PacketsDropped is the fabric's drop count for the cell.
	PacketsDropped uint64
	// Attrib is the cell's latency-attribution collector (spans decomposed
	// into per-stage wait/service); the figure sweeps merge these in spec
	// order into per-transport blame sections.
	Attrib *attrib.Collector
	// Ledger is the rendered execution-ledger JSON (nil unless
	// Options.LedgerDir is set). Like Telemetry, it is rendered in the
	// worker and written during the serial merge phase.
	Ledger []byte
	// KV is the application-level outcome of a KV cell (nil for other
	// motifs). Populated even when the run errored, so a wedged overload
	// cell still reports what completed.
	KV *motif.KVResult
}

// runOneCell executes a single cell against the given registry with the
// instrumentation the options ask for. It opens no files and touches no
// state outside its arguments.
func runOneCell(o Options, spec cellSpec, reg *metrics.Registry) cellOutput {
	out := cellOutput{Spec: spec, Reg: reg}
	inst := cellInstr{reg: reg, cell: spec.cellName(), shards: o.Shards}
	if reg.SpansEnabled() {
		out.Attrib = attrib.NewCollector(o.TailK)
		inst.attrib = out.Attrib
	}
	var local *BenchLog
	if o.Bench != nil {
		local = &BenchLog{}
		inst.bench = local
	}
	if o.TelemetryDir != "" {
		inst.sampleEvery = cellSampleInterval
	}
	if o.LedgerDir != "" {
		rs := runSpecFor(spec, o)
		inst.canon = ledger.NewCanonicalRecorder(ledger.Options{Run: &rs})
	}
	var c *motif.Cluster
	out.Makespan, c, out.Err = runMotifPoint(spec, o.Nodes, o.Seed, &inst)
	out.KV = inst.kvResult
	if c != nil {
		out.Recovery = c.RecoveryStats()
		out.Ranks = len(c.Transports)
		out.PacketsDropped = c.Net.TotalStats().PacketsDropped
	}
	if out.Err != nil {
		return out
	}
	if inst.shardSet != nil {
		var buf bytes.Buffer
		if err := inst.shardSet.WriteCSV(&buf); err != nil {
			out.Err = err
			return out
		}
		out.Telemetry = buf.Bytes()
	}
	if local != nil && len(local.Records) > 0 {
		rec := local.Records[0]
		out.Bench = &rec
	}
	if inst.canon != nil {
		b, err := inst.canon.Finalize().Marshal()
		if err != nil {
			out.Err = err
			return out
		}
		out.Ledger = b
	}
	return out
}

// runCells executes every spec — each with its own shard group, registry
// and telemetry — on Options.workerCount() goroutines and returns the outputs
// indexed like specs, independent of completion order. With one worker
// (or one cell) it runs inline; the outputs are identical either way.
func runCells(o Options, specs []cellSpec) []cellOutput {
	out := make([]cellOutput, len(specs))
	workers := o.workerCount()
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		for i, s := range specs {
			out[i] = runOneCell(o, s, newCellRegistry(o.Shards))
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
				out[i] = runOneCell(o, specs[i], newCellRegistry(o.Shards))
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
// the bench record and the telemetry file — during the serial merge
// phase. This is the only place cell telemetry touches the filesystem.
func flushCellOutput(o Options, out cellOutput) error {
	if out.Err != nil {
		return out.Err
	}
	if out.Bench != nil && o.Bench != nil {
		o.Bench.Append(*out.Bench)
	}
	if out.Telemetry != nil {
		name := telemetryFileName(out.Spec.cellName())
		if err := os.WriteFile(filepath.Join(o.TelemetryDir, name), out.Telemetry, 0o644); err != nil {
			return err
		}
	}
	if out.Ledger != nil {
		name := ledgerFileName(out.Spec.cellName())
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
