package motif

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rvma/internal/metrics"
	"rvma/internal/topology"
	"rvma/internal/trace"
)

// runInstrumented runs a Sweep3D on a single switch of the given size
// under the given transport with a fully enabled registry attached and
// returns the registry.
func runInstrumented(t *testing.T, kind TransportKind, nodes int) (*Cluster, *metrics.Registry) {
	t.Helper()
	topo, err := topology.ForNodeCount(topology.KindSingleSwitch, nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(topo, kind)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	reg.EnableSpans()
	reg.EnableTimeline(0)
	c.AttachShardMetrics(reg)
	if _, err := RunSweep3D(c, DefaultSweep3DConfig(topo.NumNodes())); err != nil {
		t.Fatal(err)
	}
	return c, reg
}

// TestInstrumentedMotifSpans is the acceptance check for the span layer:
// both transports must populate per-stage latency histograms, and the
// printed breakdown must carry the stages.
func TestInstrumentedMotifSpans(t *testing.T) {
	cases := []struct {
		kind   TransportKind
		stages []string
	}{
		{KindRVMA, []string{
			"span.rvma.put/host_post", "span.rvma.put/nic_tx",
			"span.rvma.put/wire", "span.rvma.put/place",
			"span.rvma.put/complete", "span.rvma.put/total",
		}},
		{KindRDMA, []string{
			"span.rdma.put/host_post", "span.rdma.put/nic_tx",
			"span.rdma.put/wire", "span.rdma.put/place",
			"span.rdma.put/total",
			"span.rdma.handshake/total", "span.rdma.registration/total",
			"span.rdma.put/fence_hold",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			_, reg := runInstrumented(t, tc.kind, 8)
			for _, name := range tc.stages {
				h := reg.Histogram(name)
				if h.Count() == 0 {
					t.Errorf("histogram %q empty, want samples", name)
				}
				if h.Quantile(0.99) < h.Quantile(0.5) {
					t.Errorf("%q: p99 %v < p50 %v", name, h.Quantile(0.99), h.Quantile(0.5))
				}
			}
			if open := reg.OpenSpans(); open != 0 {
				t.Errorf("spans still open after run: %d", open)
			}
			var sb strings.Builder
			reg.FprintSpans(&sb)
			out := sb.String()
			for _, want := range []string{"stage", "count", "mean", "p50", "p99"} {
				if !strings.Contains(out, want) {
					t.Fatalf("span table missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// instrumentedSizes are the single-switch sizes the exporter tests run:
// the smallest sweep, and rvmasim's -topology single -nodes 16 cell.
var instrumentedSizes = []int{8, 16}

// TestInstrumentedMotifPerfetto asserts the -perfetto-out acceptance
// criterion: the timeline export is valid trace-event JSON with a
// non-empty traceEvents array holding complete slices.
func TestInstrumentedMotifPerfetto(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		t.Run(kind.String(), func(t *testing.T) {
			for _, nodes := range instrumentedSizes {
				t.Run(fmt.Sprintf("single-%d", nodes), func(t *testing.T) {
					_, reg := runInstrumented(t, kind, nodes)
					var buf bytes.Buffer
					if err := reg.Timeline().WritePerfetto(&buf); err != nil {
						t.Fatal(err)
					}
					var f struct {
						TraceEvents []struct {
							Name string  `json:"name"`
							Ph   string  `json:"ph"`
							TS   float64 `json:"ts"`
							PID  int     `json:"pid"`
						} `json:"traceEvents"`
						DisplayTimeUnit string `json:"displayTimeUnit"`
					}
					if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
						t.Fatalf("perfetto output is not valid JSON: %v", err)
					}
					if len(f.TraceEvents) == 0 {
						t.Fatal("traceEvents is empty")
					}
					complete := 0
					for _, ev := range f.TraceEvents {
						if ev.Ph == "X" {
							complete++
						}
					}
					if complete == 0 {
						t.Fatal("no complete ('X') slices in timeline")
					}
				})
			}
		})
	}
}

// TestInstrumentedMotifJSONSnapshot asserts the -metrics-out path: the
// snapshot parses, carries fabric, NIC, protocol and span metrics, and
// writes every section's keys sorted.
func TestInstrumentedMotifJSONSnapshot(t *testing.T) {
	for _, nodes := range instrumentedSizes {
		t.Run(fmt.Sprintf("single-%d", nodes), func(t *testing.T) {
			c, reg := runInstrumented(t, KindRVMA, nodes)
			var buf bytes.Buffer
			if err := reg.WriteJSON(&buf, c.Eng.Now()); err != nil {
				t.Fatal(err)
			}
			var snap struct {
				Counters   map[string]uint64         `json:"counters"`
				Gauges     map[string]map[string]any `json:"gauges"`
				Histograms map[string]map[string]any `json:"histograms"`
			}
			if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
				t.Fatalf("metrics snapshot is not valid JSON: %v", err)
			}
			if snap.Counters["nic.messages_sent"] == 0 {
				t.Error("nic.messages_sent counter empty")
			}
			if _, ok := snap.Histograms["fabric.packet_latency_ns"]; !ok {
				t.Error("fabric.packet_latency_ns histogram missing")
			}
			if _, ok := snap.Gauges["sim.events_executed"]; !ok {
				t.Error("sim.events_executed gauge missing (cluster collector not attached)")
			}
			if _, ok := snap.Histograms["span.rvma.put/total"]; !ok {
				t.Error("span.rvma.put/total histogram missing (spans not exported)")
			}
			var sections map[string]json.RawMessage
			if err := json.Unmarshal(buf.Bytes(), &sections); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"counters", "gauges", "histograms"} {
				// The keys in the order they were written.
				var keys []string
				dec := json.NewDecoder(bytes.NewReader(sections[name]))
				for tok, err := dec.Token(); err == nil; tok, err = dec.Token() {
					if key, ok := tok.(string); ok {
						keys = append(keys, key)
						dec.Decode(new(json.RawMessage))
					}
				}
				if !slices.IsSorted(keys) {
					t.Errorf("%s keys not sorted: %v", name, keys)
				}
			}
		})
	}
}

// TestClusterSetTracer checks the cmd/rvmasim -trace wiring target: one
// tracer attached at cluster level sees fabric, NIC and protocol events.
func TestClusterSetTracer(t *testing.T) {
	topo, err := topology.ForNodeCount(topology.KindSingleSwitch, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(DefaultClusterConfig(topo, KindRVMA))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(c.Eng, 64)
	tr.EnableAll()
	c.SetTracer(tr)
	if _, err := RunSweep3D(c, DefaultSweep3DConfig(topo.NumNodes())); err != nil {
		t.Fatal(err)
	}
	seen := map[trace.Category]bool{}
	for _, ev := range tr.Events() {
		seen[ev.Cat] = true
	}
	if !seen[trace.CatNIC] {
		t.Error("no CatNIC events recorded through cluster tracer")
	}
	if !seen[trace.CatPacket] {
		t.Error("no CatPacket events recorded through cluster tracer")
	}
}
