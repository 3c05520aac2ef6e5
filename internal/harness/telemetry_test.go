package harness

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/metrics"
	"rvma/internal/motif"
	"rvma/internal/sim"
	"rvma/internal/telemetry"
	"rvma/internal/topology"
)

// telemetryTestNet is the Figure-7 cell the telemetry tests run: the
// adaptively routed dragonfly exercises the engine RNG (jitter, detours),
// the hardest case for sampler invisibility.
func telemetryTestNet() NetConfig {
	return NetConfig{"dragonfly/adaptive", topology.KindDragonfly, fabric.RouteAdaptive}
}

// TestSamplingPreservesDeterminism is the tentpole acceptance gate:
// attaching the in-sim sampler must not perturb the model. One Figure-7
// cell runs with sampling disabled and at two different cadences; the
// makespan and the full metrics snapshot must be byte-identical in all
// three configurations, for both transports.
func TestSamplingPreservesDeterminism(t *testing.T) {
	o := DefaultOptions()
	o.Nodes = 64
	for _, transport := range []string{"rvma", "rdma"} {
		t.Run(strings.ToUpper(transport), func(t *testing.T) {
			run := func(interval sim.Time) []byte {
				reg := metrics.NewRegistry()
				reg.EnableSpans()
				var samples *telemetry.ShardSet
				out := RunCell(o.spec(MotifSweep3D, transport, telemetryTestNet(), 100), Observers{
					Metrics: reg, SampleEvery: interval,
					Attach: func(_ *motif.Cluster, s *telemetry.ShardSet) { samples = s },
				})
				if out.Err != nil {
					t.Fatal(out.Err)
				}
				mk := out.Makespan
				if interval > 0 && samples.Samples() == 0 {
					t.Fatal("sampler attached but recorded no rows")
				}
				var buf bytes.Buffer
				fmt.Fprintf(&buf, "makespan_ns=%v\n", mk.Nanoseconds())
				if err := reg.WriteJSON(&buf, mk); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			unsampled := run(0)
			for _, interval := range []sim.Time{10 * sim.Microsecond, 3 * sim.Microsecond} {
				if got := run(interval); !bytes.Equal(unsampled, got) {
					t.Errorf("sampling at %v changed the run:\n--- unsampled ---\n%s\n--- sampled ---\n%s",
						interval, firstDiffContext(unsampled, got), firstDiffContext(got, unsampled))
				}
			}
		})
	}
}

// TestRunFigureCellWritesTimeseries checks the per-cell CSV emission the
// figure sweeps do under Options.TelemetryDir: the file exists, has the
// expected header shape with sorted columns, carries data rows, and two
// identical runs produce byte-identical files.
func TestRunFigureCellWritesTimeseries(t *testing.T) {
	o := DefaultOptions()
	o.Nodes = 64
	o.TelemetryDir = t.TempDir()
	rs := o.spec(MotifSweep3D, "rvma", telemetryTestNet(), 100)

	runOnce := func() []byte {
		if err := flushCellOutput(o, runOneCell(o, rs, newCellRegistry(o.Shards))); err != nil {
			t.Fatal(err)
		}
		name := strings.NewReplacer("/", "-", "|", "_").Replace(cellName(rs)) + ".csv"
		data, err := os.ReadFile(filepath.Join(o.TelemetryDir, name))
		if err != nil {
			t.Fatalf("cell time-series not written: %v", err)
		}
		return data
	}

	first := runOnce()
	byTime := func(a, b string) int { return cmp.Compare(parseFloat(t, a), parseFloat(t, b)) }
	header := checkCSV(t, "cell time series", first, "time_ns", byTime)
	for i := 2; i < len(header); i++ {
		if header[i-1] >= header[i] {
			t.Fatalf("columns not sorted: %q before %q", header[i-1], header[i])
		}
	}
	for _, want := range []string{"fabric.util.sw", "rvma.posted_buffers_total", "sim.queue_depth"} {
		if !strings.Contains(strings.Join(header, ","), want) {
			t.Errorf("header missing probe %q:\n%v", want, header)
		}
	}

	if second := runOnce(); !bytes.Equal(first, second) {
		t.Error("same-seed cell time-series differ between runs")
	}
}
