package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/ledger"
	"rvma/internal/topology"
)

// workerCounts is the cross-worker determinism matrix: serial, a fixed
// small pool, and one-per-CPU (deduplicated — on a single-core host
// NumCPU collapses into 1).
func workerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// figureArtifacts renders one figure sweep with full instrumentation at a
// given worker count and returns everything it produced: the table bytes
// and the telemetry and ledger files (name -> contents).
func figureArtifacts(t *testing.T, fig func(Options) *Table, gbps []float64, workers int) (table []byte, telemetry, ledgers map[string][]byte) {
	t.Helper()
	o := DefaultOptions()
	o.Nodes = 64
	o.LinkGbps = gbps
	o.Sizes, o.Runs = []int{2, 4096}, 2
	o.Workers = workers
	o.TelemetryDir, o.LedgerDir = t.TempDir(), t.TempDir()

	var buf bytes.Buffer
	fig(o).Fprint(&buf)
	return buf.Bytes(), readDirBytes(t, o.TelemetryDir), readDirBytes(t, o.LedgerDir)
}

// TestFigureOutputIdenticalAcrossWorkers is the parallel-harness
// regression gate: a figure sweep must produce byte-identical tables,
// telemetry CSVs and cell ledgers at every worker count. Any shared
// mutable state between cells, nondeterministic merge order, or
// worker-count-dependent seeding shows up here as a diff.
func TestFigureOutputIdenticalAcrossWorkers(t *testing.T) {
	t.Parallel()
	type figure struct {
		name    string
		fn      func(Options) *Table
		gbps    []float64
		workers []int  // worker counts compared; nil is workerCounts()
		section string // a title the table must render, if any
	}
	at100 := []float64{100}
	figures := []figure{
		{"fig4", Fig4, at100, nil, ""},
		{"fig6", Fig6, at100, nil, ""},
		{"fig7", Fig7, at100, nil, "Latency attribution"},
	}
	if !testing.Short() {
		figures = append(figures,
			// With the 100 Gbps row, rvmabench -nodes 64 fig7 at -workers
			// 1 and 4: the other three default link speeds.
			figure{"fig7-fast-links", Fig7, DefaultOptions().LinkGbps[1:], []int{1, 4}, "Latency attribution"},
			figure{"fig8", Fig8, at100, nil, ""},
			figure{"collectives", CollectivesTable, at100, nil, ""})
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			t.Parallel()
			workers := fig.workers
			if workers == nil {
				workers = workerCounts()
			}
			refTable, refTel, refLedgers := figureArtifacts(t, fig.fn, fig.gbps, workers[0])
			if !bytes.Contains(refTable, []byte(fig.section)) {
				t.Errorf("table has no %q section", fig.section)
			}
			if len(refTel) == 0 || len(refLedgers) == 0 {
				t.Fatalf("serial run wrote %d telemetry files and %d ledgers", len(refTel), len(refLedgers))
			}
			for _, workers := range workers[1:] {
				table, tel, ledgers := figureArtifacts(t, fig.fn, fig.gbps, workers)
				if !bytes.Equal(refTable, table) {
					t.Errorf("workers=%d table differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
						workers, firstDiffContext(refTable, table), workers, firstDiffContext(table, refTable))
				}
				for _, files := range []struct {
					kind     string
					ref, got map[string][]byte
				}{{"telemetry", refTel, tel}, {"ledger", refLedgers, ledgers}} {
					if len(files.got) != len(files.ref) {
						t.Errorf("workers=%d wrote %d %s files, serial wrote %d", workers, len(files.got), files.kind, len(files.ref))
					}
					for name, want := range files.ref {
						if got, ok := files.got[name]; !ok {
							t.Errorf("workers=%d missing %s file %s", workers, files.kind, name)
						} else if !bytes.Equal(want, got) {
							t.Errorf("workers=%d %s %s differs from serial:\n%s",
								workers, files.kind, name, firstDiffContext(want, got))
						}
					}
				}
			}
		})
	}
}

// TestRunCellsMetricsIdenticalAcrossWorkers drops below the table layer:
// the per-cell metrics registries coming out of the worker pool must
// snapshot byte-identically at every worker count. This is the strictest
// form of the one-engine-per-cell claim — every counter, gauge and span
// histogram in every cell, not just the columns a table happens to print.
func TestRunCellsMetricsIdenticalAcrossWorkers(t *testing.T) {
	nets := []NetConfig{
		{"dragonfly/adaptive", topology.KindDragonfly, fabric.RouteAdaptive},
		{"hyperx/DOR", topology.KindHyperX, fabric.RouteStatic},
	}
	o := DefaultOptions()
	o.Nodes = 64
	var specs []ledger.RunSpec
	for _, nc := range nets {
		for _, transport := range []string{"rvma", "rdma"} {
			specs = append(specs, o.spec(MotifSweep3D, transport, nc, 100))
		}
	}
	snapshot := func(workers int) [][]byte {
		o.Workers = workers
		outs := runFigureCells(o, specs, true)
		snaps := make([][]byte, len(outs))
		for i, out := range outs {
			if out.Err != nil {
				t.Fatalf("workers=%d cell %s: %v", workers, cellName(out.Spec), out.Err)
			}
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "makespan_ns=%v\n", out.Makespan.Nanoseconds())
			if err := out.Reg.WriteJSON(&buf, out.Makespan); err != nil {
				t.Fatal(err)
			}
			snaps[i] = buf.Bytes()
		}
		return snaps
	}
	ref := snapshot(1)
	for _, workers := range workerCounts()[1:] {
		got := snapshot(workers)
		for i := range ref {
			if !bytes.Equal(ref[i], got[i]) {
				t.Errorf("workers=%d cell %s metrics differ from serial:\n%s",
					workers, cellName(specs[i]), firstDiffContext(ref[i], got[i]))
			}
		}
	}
}

// TestConcurrentTelemetryWritesAreClean runs two cells concurrently with
// telemetry enabled and checks the resulting CSVs are non-corrupt (proper
// header, sorted columns, data rows) and byte-identical to a serial run —
// the io.Writer refactor's guarantee that cell execution never touches
// the filesystem, so concurrent cells cannot interleave writes.
func TestConcurrentTelemetryWritesAreClean(t *testing.T) {
	o := DefaultOptions()
	o.Nodes = 64
	specs := []ledger.RunSpec{
		o.spec(MotifSweep3D, "rvma", telemetryTestNet(), 100),
		o.spec(MotifSweep3D, "rdma", telemetryTestNet(), 100),
	}
	run := func(workers int) map[string][]byte {
		o.Workers = workers
		o.TelemetryDir = t.TempDir()
		for _, out := range runFigureCells(o, specs, true) {
			if err := flushCellOutput(o, out); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
		files := make(map[string][]byte)
		entries, err := os.ReadDir(o.TelemetryDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			data, err := os.ReadFile(filepath.Join(o.TelemetryDir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[ent.Name()] = data
		}
		return files
	}

	concurrent := run(2)
	if len(concurrent) != len(specs) {
		t.Fatalf("concurrent run wrote %d files, want %d", len(concurrent), len(specs))
	}
	var names []string
	for name, data := range concurrent {
		names = append(names, name)
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s has no data rows", name)
		}
		cols := strings.Split(lines[0], ",")
		if cols[0] != "time_ns" {
			t.Errorf("%s header starts with %q, want time_ns", name, cols[0])
		}
		for i := 2; i < len(cols); i++ {
			if cols[i-1] >= cols[i] {
				t.Errorf("%s columns not sorted: %q before %q", name, cols[i-1], cols[i])
			}
		}
		want := len(cols)
		for ln, line := range lines[1:] {
			if got := strings.Count(line, ",") + 1; got != want {
				t.Fatalf("%s row %d has %d fields, header has %d (corrupt interleaved write?)",
					name, ln+1, got, want)
			}
		}
	}
	sort.Strings(names)

	serial := run(1)
	for _, name := range names {
		if !bytes.Equal(serial[name], concurrent[name]) {
			t.Errorf("telemetry %s differs between serial and concurrent runs:\n%s",
				name, firstDiffContext(serial[name], concurrent[name]))
		}
	}
}
