package motif

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
	"rvma/internal/pcie"
	"rvma/internal/rvma"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// testbed builds the §V-A two-node testbed of prof as the harness does:
// one switch, the profile's NIC and fabric, PCIe Gen 4/5.
func testbed(t *testing.T, prof hostif.Profile, kind TransportKind, routing fabric.RoutingMode) *Cluster {
	t.Helper()
	cfg := DefaultClusterConfig(topology.NewSingleSwitch(2), kind)
	cfg.NIC, cfg.Fabric, cfg.Routing = prof.NIC, prof.Fabric, routing
	cfg.PipelinedFence = prof.PipelinedFence
	cfg.RDMALastBytePoll = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRVMALatencyDecomposition reconstructs a single 1-packet put's
// one-way latency from first principles and compares against simulation.
func TestRVMALatencyDecomposition(t *testing.T) {
	prof := hostif.Verbs()
	const size = 512
	c := testbed(t, prof, KindRVMA, fabric.RouteStatic)
	src, dst := c.rvmaEPs[0], c.rvmaEPs[1]
	busCfg, fcfg := pcie.Gen4x16(), prof.Fabric

	win, err := dst.InitWindow(1, size, rvma.EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := win.PostBuffer(size)
	if err != nil {
		t.Fatal(err)
	}

	var observed sim.Time
	c.Eng.Schedule(0, func() {
		n := dst.WatchBuffer(buf)
		n.Done.OnComplete(func() { observed = c.Eng.Now() })
		src.PutN(1, 1, 0, size)
	})
	c.Group.Run()
	if observed == 0 {
		t.Fatal("completion never observed")
	}

	// Analytic reconstruction as an absolute timeline, stage by stage,
	// mirroring the models. The bus data path is idle throughout.
	wire := size + fabric.HeaderBytes
	ser := sim.SerializationTime(wire, fcfg.LinkGbps)
	xbar := sim.SerializationTime(wire, fcfg.LinkGbps*fcfg.XbarFactor)
	tPost := prof.NIC.HostPostOverhead
	tDoorbellSer := tPost + sim.SerializationTime(prof.NIC.DoorbellBytes, busCfg.GBps*8)
	tDoorbell := tDoorbellSer + busCfg.Latency
	// The payload DMA read's bus occupancy starts after the doorbell's
	// serialization.
	tDMA := max(tDoorbellSer+sim.SerializationTime(size, busCfg.GBps*8)+busCfg.Latency, tDoorbell)
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
	expected := tCellWrite + prof.NIC.MWaitWake + prof.NIC.HostCompletionOverhead

	if observed != expected {
		t.Fatalf("one-way latency decomposition mismatch:\n  simulated  %v\n  analytic   %v\n  delta      %v",
			observed, expected, observed-expected)
	}
}

// TestPingPongAndSetup runs both motifs on every transport and completion
// scheme: each round trip crosses at least two links each way, RDMA's
// setup costs time, RVMA has none, and bad shapes are refused.
func TestPingPongAndSetup(t *testing.T) {
	prof := hostif.UCX()
	for _, tc := range []struct {
		kind    TransportKind
		routing fabric.RoutingMode
	}{
		{KindRVMA, fabric.RouteAdaptive},
		{KindRDMA, fabric.RouteStatic}, // last-byte polling
		{KindRDMA, fabric.RouteAdaptive},
	} {
		d, err := RunPingPong(testbed(t, prof, tc.kind, tc.routing), 64, 10)
		if err != nil || d < 40*prof.Fabric.LinkLatency {
			t.Errorf("%v/%v: ping-pong %v, %v", tc.kind, tc.routing, d, err)
		}
		setup, err := RunSetup(testbed(t, prof, tc.kind, tc.routing), 64)
		if err != nil || (tc.kind == KindRVMA) != (setup == 0) {
			t.Errorf("%v/%v: setup %v, %v", tc.kind, tc.routing, setup, err)
		}
	}
	if _, err := RunPingPong(testbed(t, prof, KindRVMA, fabric.RouteAdaptive), 0, 10); err == nil {
		t.Error("zero-size ping-pong should error")
	}
	if _, err := RunSetup(testbed(t, prof, KindRDMA, fabric.RouteStatic), 0); err == nil {
		t.Error("zero-size setup should error")
	}
}
