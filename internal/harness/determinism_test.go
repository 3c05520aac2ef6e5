package harness

import (
	"bytes"
	"fmt"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/metrics"
	"rvma/internal/topology"
	"strings"
)

// TestSameSeedSameMetrics is the determinism regression gate: running
// one Figure-7 cell twice with the same seed must produce byte-identical
// metrics snapshots. Anything that leaks wall-clock time, global
// randomness, or map iteration order into the simulation shows up here
// as a snapshot diff. The cell uses dragonfly/adaptive routing because
// adaptive routing exercises the engine RNG (jitter, detours) — the
// hardest case to keep reproducible. Both transports run: the RDMA path
// covers the sorted-drain fix in motif/transport_rdma.go.
func TestSameSeedSameMetrics(t *testing.T) {
	nc := NetConfig{"dragonfly/adaptive", topology.KindDragonfly, fabric.RouteAdaptive}
	o := DefaultOptions()
	o.Nodes = 64
	for _, transport := range []string{"rvma", "rdma"} {
		t.Run(strings.ToUpper(transport), func(t *testing.T) {
			run := func() []byte {
				reg := metrics.NewRegistry()
				reg.EnableSpans()
				out := RunCell(o.spec(MotifSweep3D, transport, nc, 100), Observers{Metrics: reg})
				if out.Err != nil {
					t.Fatal(out.Err)
				}
				mk := out.Makespan
				var buf bytes.Buffer
				fmt.Fprintf(&buf, "makespan_ns=%v\n", mk.Nanoseconds())
				if err := reg.WriteJSON(&buf, mk); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			first, second := run(), run()
			if !bytes.Equal(first, second) {
				t.Errorf("same seed produced different metrics snapshots:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
					firstDiffContext(first, second), firstDiffContext(second, first))
			}
		})
	}
}

// firstDiffContext returns a short window of a around its first
// difference from b, keeping failure output readable.
func firstDiffContext(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := i-120, i+120
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}
