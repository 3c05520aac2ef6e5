package microbench

// Model validation, in the spirit of the paper's §V-B ("The models are
// validated against performance results from existing RDMA solutions"):
// we cannot validate against the authors' hardware, but we can — and do —
// validate the simulator against itself analytically: the measured
// end-to-end latency of a minimal transfer must equal the sum of its
// modeled components, term by term. A model whose measurements cannot be
// decomposed into its own constants is mis-wired; this catches double
// charging and dropped stages.

import (
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/hostif"
	"rvma/internal/memory"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/rvma"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// TestRVMALatencyDecomposition reconstructs a single 1-packet put's
// one-way latency from first principles and compares against simulation.
func TestRVMALatencyDecomposition(t *testing.T) {
	prof := hostif.Verbs()
	busCfg := pcie.Gen4x16()
	const size = 512

	eng := sim.NewEngine(1)
	fcfg := prof.Fabric
	fcfg.Routing = fabric.RouteStatic
	net, err := fabric.New(eng, topology.NewSingleSwitch(2), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := rvma.DefaultConfig()
	rcfg.CarryData = false
	src := rvma.NewEndpoint(nic.New(eng, net, 0, busCfg, prof.NIC), rcfg)
	dst := rvma.NewEndpoint(nic.New(eng, net, 1, busCfg, prof.NIC), rcfg)

	win, err := dst.InitWindow(1, size, rvma.EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := win.PostBuffer(size)
	if err != nil {
		t.Fatal(err)
	}

	var observed sim.Time
	eng.Schedule(0, func() {
		n := dst.WatchBuffer(buf)
		n.Done.OnComplete(func() { observed = eng.Now() })
		src.PutN(1, 1, 0, size)
	})
	eng.Run()
	if observed == 0 {
		t.Fatal("completion never observed")
	}

	// Analytic reconstruction, stage by stage. The bus data path is idle
	// throughout, so each transfer's cost is its serialization + latency.
	busTime := func(bytes int) sim.Time {
		return sim.SerializationTime(bytes, busCfg.GBps*8) + busCfg.Latency
	}
	wire := size + fabric.HeaderBytes
	ser := sim.SerializationTime(wire, fcfg.LinkGbps)
	xbar := sim.SerializationTime(wire, fcfg.LinkGbps*fcfg.XbarFactor)

	expected := prof.NIC.HostPostOverhead + // software post
		busTime(prof.NIC.DoorbellBytes) + // doorbell MMIO
		// payload DMA read: its bus occupancy starts after the doorbell's
		// serialization (trivial), so it completes at doorbell-ser +
		// payload-ser + latency; relative to the doorbell completion the
		// extra is payload-ser + latency - ... easier: absolute times:
		0
	// Build the absolute timeline instead of a sum, mirroring the models.
	tPost := prof.NIC.HostPostOverhead
	tDoorbellSer := tPost + sim.SerializationTime(prof.NIC.DoorbellBytes, busCfg.GBps*8)
	tDoorbell := tDoorbellSer + busCfg.Latency
	tDMA := tDoorbellSer + sim.SerializationTime(size, busCfg.GBps*8) + busCfg.Latency
	if tDMA < tDoorbell {
		tDMA = tDoorbell
	}
	tSendProc := tDMA + prof.NIC.SendPacketProc
	tHostSer := tSendProc + ser
	tAtSwitch := tHostSer + fcfg.LinkLatency
	tXbar := tAtSwitch + xbar
	tOutSer := tXbar + fcfg.SwitchLatency + ser
	tArrive := tOutSer + fcfg.LinkLatency
	tHandler := tArrive + prof.NIC.RecvPacketProc + prof.NIC.LookupLatency
	// Data DMA is issued, then the completion-pointer write queues behind
	// it on the bus.
	tDataSer := tHandler + sim.SerializationTime(size, busCfg.GBps*8)
	tCellWrite := tDataSer + sim.SerializationTime(16, busCfg.GBps*8) + busCfg.Latency
	tWake := tCellWrite + prof.NIC.MWaitWake + prof.NIC.HostCompletionOverhead
	expected = tWake

	if observed != expected {
		t.Fatalf("one-way latency decomposition mismatch:\n  simulated  %v\n  analytic   %v\n  delta      %v",
			observed, expected, observed-expected)
	}
}

// TestRDMAAdaptivePenaltyDecomposition verifies the structural identity
// behind Figures 4/5: the RDMA-adaptive completion observed at the target
// happens strictly after (a) all data landed and (b) one extra wire
// crossing, and the penalty versus RVMA is positive at every size.
func TestRDMAAdaptivePenaltyDecomposition(t *testing.T) {
	prof := hostif.Verbs()
	for _, size := range []int{2, 512, 8192, 65536} {
		cfg := LatencyConfig{Profile: prof, Size: size, Iters: 20, Runs: 1, Seed: 3}
		rv := MeasureLatency(cfg, TransportRVMA)
		ra := MeasureLatency(cfg, TransportRDMAAdaptive)
		penalty := ra.Summary.Mean - rv.Summary.Mean
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

// TestWatcherObservesExactCellWrite ties the memory layer into the
// validation: the MWait watcher must observe the exact (head, len) pair
// the completion unit wrote, never a torn or stale value.
func TestWatcherObservesExactCellWrite(t *testing.T) {
	mem := memory.New()
	cell := memory.MakeCompletionCell(mem)
	var seen [][2]uint64
	mem.Watch(cell.Addr(), func(memory.Addr, int) {
		h, l := cell.Get()
		seen = append(seen, [2]uint64{uint64(h), uint64(l)})
	})
	cell.Set(0xAAA0, 111)
	cell.Set(0xBBB0, 222)
	if len(seen) != 2 || seen[0] != [2]uint64{0xAAA0, 111} || seen[1] != [2]uint64{0xBBB0, 222} {
		t.Fatalf("watcher observations: %v", seen)
	}
}
