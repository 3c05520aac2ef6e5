package rvma_test

// Benchmarks regenerating the paper's latency figures (4-6), plus the
// ablation, collective, MPI RMA and stream benches DESIGN.md calls out.
// Each benchmark iteration runs a scaled-down but structurally identical
// experiment; use cmd/rvmabench for full-scale tables. The motif figures'
// host cost is measured end to end by bench/ (bash bench/run.sh).
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"strings"
	"testing"

	"rvma/internal/collective"
	"rvma/internal/fabric"
	"rvma/internal/harness"
	"rvma/internal/ledger"
	"rvma/internal/mpirma"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/rstream"
	irvma "rvma/internal/rvma"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// benchOptions are harness options scaled for per-iteration benchmarking.
func benchOptions() harness.Options {
	o := harness.DefaultOptions()
	o.Sizes = []int{2, 1024, 65536}
	o.Iters = 50
	o.Runs = 2
	o.Nodes = 64
	o.LinkGbps = []float64{100, 2000}
	return o
}

// BenchmarkFig4LatencyVerbs regenerates Figure 4 (RVMA vs RDMA latency,
// Verbs profile; paper: up to 65.8% reduction).
func BenchmarkFig4LatencyVerbs(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		harness.Fig4(o)
	}
}

// BenchmarkFig5LatencyUCX regenerates Figure 5 (UCX profile; paper: 45.8%
// reduction).
func BenchmarkFig5LatencyUCX(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		harness.Fig5(o)
	}
}

// BenchmarkFig6Amortization regenerates Figure 6 (exchanges needed to
// amortize RDMA buffer setup to within 3%).
func BenchmarkFig6Amortization(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		harness.Fig6(o)
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationNotifyMWait measures the RVMA ping-pong with
// Monitor/MWait completion observation.
func BenchmarkAblationNotifyMWait(b *testing.B) {
	benchNotify(b, "mwait")
}

// BenchmarkAblationNotifyPoll measures the same with polling observation.
func BenchmarkAblationNotifyPoll(b *testing.B) {
	benchNotify(b, "poll")
}

func benchNotify(b *testing.B, notify string) {
	b.Helper()
	rs := ledger.RunSpec{Motif: string(harness.MotifPingPong), Transport: "rvma", Topology: string(topology.KindSingleSwitch),
		Routing: fabric.RouteAdaptive.String(), Network: "bench", Nodes: 2, Gbps: 100, Seed: 1,
		Host: "verbs", Size: 64, Iters: 100, Notify: notify}
	for i := 0; i < b.N; i++ {
		out := harness.RunCell(rs, harness.Observers{})
		if out.Err != nil {
			b.Fatal(out.Err)
		}
		b.ReportMetric((out.Makespan / sim.Time(2*rs.Iters)).Nanoseconds(), "sim-ns/op")
	}
}

// BenchmarkAblationRDMABuffers sweeps the RDMA negotiated-buffer depth on
// Sweep3D, quantifying how much credit pipelining recovers.
func BenchmarkAblationRDMABuffers(b *testing.B) {
	for _, bufs := range []int{1, 2, 4} {
		b.Run(benchName("bufs", bufs), func(b *testing.B) {
			rs := ledger.RunSpec{Motif: string(harness.MotifSweep3D), Transport: "rdma", Topology: string(topology.KindDragonfly),
				Routing: fabric.RouteAdaptive.String(), Network: "bench", Nodes: 64, Gbps: 400, Seed: 1, RDMABuffers: bufs}
			for i := 0; i < b.N; i++ {
				out := harness.RunCell(rs, harness.Observers{})
				if out.Err != nil {
					b.Fatal(out.Err)
				}
				b.ReportMetric(out.Makespan.Microseconds(), "sim-us/run")
			}
		})
	}
}

// BenchmarkAblationAdaptiveVsStaticFabric measures raw fabric delivery
// under the two routing disciplines (design decision 2 in DESIGN.md).
func BenchmarkAblationAdaptiveVsStaticFabric(b *testing.B) {
	for _, mode := range []fabric.RoutingMode{fabric.RouteStatic, fabric.RouteAdaptive} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			rs := ledger.RunSpec{Motif: string(harness.MotifSweep3D), Transport: "rvma", Topology: string(topology.KindFatTree),
				Routing: mode.String(), Network: "bench", Nodes: 64, Gbps: 100, Seed: 1}
			for i := 0; i < b.N; i++ {
				if out := harness.RunCell(rs, harness.Observers{}); out.Err != nil {
					b.Fatal(out.Err)
				}
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + string(rune('0'+n))
}

// BenchmarkCollectives measures the extension collectives under both
// transports (see internal/collective).
func BenchmarkCollectives(b *testing.B) {
	for _, op := range []collective.Op{collective.OpBarrier, collective.OpAllreduce} {
		for _, transport := range []string{"rvma", "rdma"} {
			b.Run(string(op)+"/"+strings.ToUpper(transport), func(b *testing.B) {
				rs := ledger.RunSpec{Motif: string(op), Transport: transport, Topology: string(topology.KindDragonfly),
					Routing: fabric.RouteAdaptive.String(), Network: "bench", Nodes: 32, Gbps: 100, Seed: 1}
				for i := 0; i < b.N; i++ {
					out := harness.RunCell(rs, harness.Observers{})
					if out.Err != nil {
						b.Fatal(out.Err)
					}
					b.ReportMetric(out.Makespan.Microseconds(), "sim-us/run")
				}
			})
		}
	}
}

// BenchmarkMPIRMAFence measures the mpirma fence (entry + data-wait + exit
// rounds) at a few communicator sizes.
func BenchmarkMPIRMAFence(b *testing.B) {
	for _, ranks := range []int{4, 16} {
		ranks := ranks
		b.Run(fmt.Sprintf("ranks-%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(1)
				net, err := fabric.New(eng, topology.NewSingleSwitch(ranks), fabric.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				prof := nic.DefaultProfile()
				eps := make([]*irvma.Endpoint, ranks)
				for j := 0; j < ranks; j++ {
					eps[j] = irvma.NewEndpoint(nic.New(eng, net, j, pcie.Gen4x16(), prof), irvma.DefaultConfig())
				}
				comm, err := mpirma.NewComm(eps)
				if err != nil {
					b.Fatal(err)
				}
				win, err := mpirma.CreateWin(comm, mpirma.WinConfig{Size: 64})
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < ranks; r++ {
					r := r
					eng.Spawn("rank", func(p *sim.Process) {
						for e := 0; e < 5; e++ {
							if err := win.Fence(p, r); err != nil {
								b.Error(err)
								return
							}
						}
					})
				}
				eng.Run()
				b.ReportMetric(eng.Now().Microseconds()/5, "sim-us/fence")
			}
		})
	}
}

// BenchmarkStreamThroughput measures rstream end-to-end transfer.
func BenchmarkStreamThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		fcfg := fabric.DefaultConfig()
		fcfg.Routing = fabric.RouteStatic
		net, err := fabric.New(eng, topology.NewSingleSwitch(2), fcfg)
		if err != nil {
			b.Fatal(err)
		}
		prof := nic.DefaultProfile()
		a := irvma.NewEndpoint(nic.New(eng, net, 0, pcie.Gen4x16(), prof), irvma.DefaultConfig())
		c := irvma.NewEndpoint(nic.New(eng, net, 1, pcie.Gen4x16(), prof), irvma.DefaultConfig())
		ca, cb, err := rstream.Pair(a, c, 1, rstream.Config{SegmentBytes: 4096, Depth: 8})
		if err != nil {
			b.Fatal(err)
		}
		const total = 256 * 1024
		payload := make([]byte, total)
		eng.Spawn("w", func(p *sim.Process) { ca.Write(payload) })
		eng.Spawn("r", func(p *sim.Process) {
			f, _ := cb.Read(total)
			p.Wait(f)
		})
		eng.Run()
		b.ReportMetric(float64(total)*8/eng.Now().Nanoseconds(), "sim-gbps")
	}
}
