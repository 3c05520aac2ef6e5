package fabric

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"rvma/internal/sim"
	"rvma/internal/topology"
	"rvma/internal/trace"
)

// twoNodeNet builds the microbenchmark network: two nodes, one switch.
func twoNodeNet(t *testing.T, cfg Config) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	net, err := New(eng, topology.NewSingleSwitch(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, net
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{LinkGbps: 0, MTU: 1, XbarFactor: 1},
		{LinkGbps: 1, MTU: 0, XbarFactor: 1},
		{LinkGbps: 1, MTU: 1, XbarFactor: 0},
		{LinkGbps: 1, MTU: 1, XbarFactor: 1, LinkLatency: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestSingleHopLatency(t *testing.T) {
	cfg := DefaultConfig()
	eng, net := twoNodeNet(t, cfg)
	// The fabric recycles a packet once its handler returns, so the
	// handler copies out what the checks read.
	var arrived sim.Time
	var wire, hops int
	net.AttachHost(0, func(pkt *Packet) {})
	net.AttachHost(1, func(pkt *Packet) {
		arrived, wire, hops = eng.Now(), pkt.WireSize(), int(pkt.Hops)
	})
	eng.Schedule(0, func() { net.Inject(&Packet{Src: 0, Dst: 1, Size: 1024}) })
	eng.Run()

	// Expected: host serialization + link + (xbar + switch pipeline +
	// output serialization) + link.
	ser := sim.SerializationTime(wire, cfg.LinkGbps)
	xbar := sim.SerializationTime(wire, cfg.LinkGbps*cfg.XbarFactor)
	want := ser + cfg.LinkLatency + xbar + cfg.SwitchLatency + ser + cfg.LinkLatency
	if arrived != want {
		t.Fatalf("arrival = %v, want %v", arrived, want)
	}
	if hops != 1 {
		t.Fatalf("hops = %d, want 1", hops)
	}
}

func TestBandwidthSerializesBackToBack(t *testing.T) {
	cfg := DefaultConfig()
	eng, net := twoNodeNet(t, cfg)
	var arrivals []sim.Time
	net.AttachHost(0, func(pkt *Packet) {})
	net.AttachHost(1, func(pkt *Packet) { arrivals = append(arrivals, eng.Now()) })
	eng.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			net.Inject(&Packet{Src: 0, Dst: 1, Size: 2048})
		}
	})
	eng.Run()
	if len(arrivals) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(arrivals))
	}
	ser := sim.SerializationTime(2048+HeaderBytes, cfg.LinkGbps)
	for i := 1; i < len(arrivals); i++ {
		gap := arrivals[i] - arrivals[i-1]
		if gap != ser {
			t.Fatalf("inter-arrival gap %d = %v, want one serialization time %v", i, gap, ser)
		}
	}
}

func TestStaticRoutingPreservesOrder(t *testing.T) {
	topo := topology.NewFatTree(4)
	cfg := DefaultConfig()
	cfg.Routing = RouteStatic
	eng := sim.NewEngine(7)
	net, err := New(eng, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for n := 0; n < topo.NumNodes(); n++ {
		n := n
		net.AttachHost(n, func(pkt *Packet) {
			if n == 15 {
				got = append(got, pkt.ID)
			}
		})
	}
	eng.Schedule(0, func() {
		for i := 0; i < 50; i++ {
			net.Inject(&Packet{Src: 0, Dst: 15, Size: 1500})
		}
	})
	eng.Run()
	if len(got) != 50 {
		t.Fatalf("delivered %d, want 50", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("static routing reordered packets: %v", got)
		}
	}
}

func TestAdaptiveRoutingCanReorder(t *testing.T) {
	// Adaptive routing spreads a burst over alternative paths whose
	// latencies vary (jitter models path-length and congestion variation),
	// so some seed must exhibit reordering; static routing never may.
	reorderedForSeed := func(seed uint64, mode RoutingMode) bool {
		topo := topology.NewFatTree(4)
		cfg := DefaultConfig()
		cfg.Routing = mode
		cfg.AdaptiveJitter = 0.9
		eng := sim.NewEngine(seed)
		net, err := New(eng, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for n := 0; n < topo.NumNodes(); n++ {
			n := n
			net.AttachHost(n, func(pkt *Packet) {
				if n == 15 {
					got = append(got, pkt.ID)
				}
			})
		}
		eng.Schedule(0, func() {
			for i := 0; i < 200; i++ {
				net.Inject(&Packet{Src: 0, Dst: 15, Size: 1500})
			}
		})
		eng.Run()
		if len(got) != 200 {
			t.Fatalf("delivered %d, want 200", len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return true
			}
		}
		return false
	}
	anyReorder := false
	for seed := uint64(1); seed <= 20; seed++ {
		if reorderedForSeed(seed, RouteAdaptive) {
			anyReorder = true
			break
		}
	}
	if !anyReorder {
		t.Fatal("adaptive routing with jitter never reordered across 20 seeds")
	}
	for seed := uint64(1); seed <= 5; seed++ {
		if reorderedForSeed(seed, RouteStatic) {
			t.Fatal("static routing must never reorder")
		}
	}
}

func TestAllModesDeliverEverything(t *testing.T) {
	topos := []topology.Topology{
		topology.NewDragonfly(4, 2, 2),
		topology.NewFatTree(4),
		topology.NewHyperX(4, 4, 2),
		topology.NewTorus3D(4, 4, 2, 2),
	}
	for _, topo := range topos {
		for _, mode := range []RoutingMode{RouteStatic, RouteAdaptive, RouteValiant} {
			cfg := DefaultConfig()
			cfg.Routing = mode
			eng := sim.NewEngine(3)
			net, err := New(eng, topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			for n := 0; n < topo.NumNodes(); n++ {
				net.AttachHost(n, func(pkt *Packet) { delivered++ })
			}
			want := 0
			eng.Schedule(0, func() {
				for s := 0; s < topo.NumNodes(); s++ {
					for d := 0; d < topo.NumNodes(); d += 3 {
						if s == d {
							continue
						}
						net.Inject(&Packet{Src: s, Dst: d, Size: 512})
						want++
					}
				}
			})
			eng.Run()
			if delivered != want {
				t.Fatalf("%s/%s: delivered %d of %d", topo.Name(), mode, delivered, want)
			}
			if net.TotalStats().PacketsDelivered != uint64(want) {
				t.Fatalf("%s/%s: stats mismatch", topo.Name(), mode)
			}
		}
	}
}

func TestValiantDetoursHappenOnDragonfly(t *testing.T) {
	topo := topology.NewDragonfly(4, 2, 2)
	cfg := DefaultConfig()
	cfg.Routing = RouteValiant
	eng := sim.NewEngine(5)
	net, err := New(eng, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < topo.NumNodes(); n++ {
		net.AttachHost(n, func(pkt *Packet) {})
	}
	eng.Schedule(0, func() {
		// Cross-group traffic only.
		net.Inject(&Packet{Src: 0, Dst: topo.NumNodes() - 1, Size: 512})
	})
	eng.Run()
	if net.TotalStats().ValiantDetours == 0 {
		t.Fatal("valiant mode took no detours on cross-group dragonfly traffic")
	}
}

func TestAdaptiveAvoidsCongestedPort(t *testing.T) {
	// On a fat-tree, saturate one up-path then check the adaptive router
	// spreads subsequent packets onto others, reducing mean latency
	// versus static routing under the same load.
	run := func(mode RoutingMode) sim.Time {
		topo := topology.NewFatTree(4)
		cfg := DefaultConfig()
		cfg.Routing = mode
		eng := sim.NewEngine(9)
		net, err := New(eng, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < topo.NumNodes(); n++ {
			net.AttachHost(n, func(pkt *Packet) {})
		}
		eng.Schedule(0, func() {
			// Two sources on the same edge switch send to destinations whose
			// static hashes collide on one up port; adaptive routing should
			// move the second flow to the idle up port.
			for i := 0; i < 32; i++ {
				net.Inject(&Packet{Src: 0, Dst: 12, Size: 2048})
				net.Inject(&Packet{Src: 1, Dst: 14, Size: 2048})
			}
		})
		eng.Run()
		return net.MeanPacketLatency()
	}
	static := run(RouteStatic)
	adaptive := run(RouteAdaptive)
	if adaptive >= static {
		t.Fatalf("adaptive mean latency %v should beat static %v under burst load", adaptive, static)
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	net, _ := New(eng, topology.NewSingleSwitch(2), DefaultConfig())
	net.AttachHost(0, func(*Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("double attach should panic")
		}
	}()
	net.AttachHost(0, func(*Packet) {})
}

func TestInjectBadEndpointPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	net, _ := New(eng, topology.NewSingleSwitch(2), DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("bad endpoint should panic")
		}
	}()
	net.Inject(&Packet{Src: 0, Dst: 9, Size: 1})
}

// Property: delivery latency scales inversely with link bandwidth for a
// fixed payload (higher Gbps never increases latency).
func TestBandwidthMonotonicityProperty(t *testing.T) {
	oneShot := func(gbps float64) sim.Time {
		eng := sim.NewEngine(1)
		cfg := DefaultConfig()
		cfg.LinkGbps = gbps
		net, _ := New(eng, topology.NewSingleSwitch(2), cfg)
		var at sim.Time
		net.AttachHost(0, func(*Packet) {})
		net.AttachHost(1, func(*Packet) { at = eng.Now() })
		eng.Schedule(0, func() { net.Inject(&Packet{Src: 0, Dst: 1, Size: 65536}) })
		eng.Run()
		return at
	}
	f := func(raw uint8) bool {
		g1 := float64(raw%100) + 10
		g2 := g1 * 2
		return oneShot(g2) <= oneShot(g1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the 2 Tbps configuration's latency is dominated by fixed
// overheads: quadrupling a small payload barely moves delivery time.
func TestFixedOverheadDominanceAtHighSpeed(t *testing.T) {
	oneShot := func(size int) sim.Time {
		eng := sim.NewEngine(1)
		cfg := DefaultConfig()
		cfg.LinkGbps = 2000
		net, _ := New(eng, topology.NewSingleSwitch(2), cfg)
		var at sim.Time
		net.AttachHost(0, func(*Packet) {})
		net.AttachHost(1, func(*Packet) { at = eng.Now() })
		eng.Schedule(0, func() { net.Inject(&Packet{Src: 0, Dst: 1, Size: size}) })
		eng.Run()
		return at
	}
	small, big := oneShot(64), oneShot(256)
	if big*100 > small*102 {
		t.Fatalf("at 2 Tbps, 64B->256B grew latency %v -> %v (>2%%)", small, big)
	}
}

func TestTracerIntegration(t *testing.T) {
	eng := sim.NewEngine(1)
	net, err := New(eng, topology.NewSingleSwitch(2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(eng, 64)
	tr.Enable(trace.CatPacket)
	net.SetTracer(tr)
	net.AttachHost(0, func(*Packet) {})
	net.AttachHost(1, func(*Packet) {})
	eng.Schedule(0, func() {
		net.Inject(&Packet{Src: 0, Dst: 1, Size: 100})
	})
	eng.Run()
	evs := tr.Events()
	if len(evs) != 2 || !strings.HasPrefix(evs[0].Msg, "inject #") || !strings.HasPrefix(evs[1].Msg, "deliver #") {
		t.Fatalf("events = %v, want inject then deliver", evs)
	}
	if st := net.TotalStats(); st.PacketsInjected != 1 || st.PacketsDelivered != 1 || st.BytesDelivered != 100 {
		t.Fatalf("stats: inj=%d del=%d bytes=%d, want 1/1/100", st.PacketsInjected, st.PacketsDelivered, st.BytesDelivered)
	}
	net.SetTracer(nil) // detach is safe
	eng.Schedule(0, func() { net.Inject(&Packet{Src: 0, Dst: 1, Size: 1}) })
	eng.Run()
}

// TestForwardingAllocatesNothingPerHop forwards lone packets over
// dragonfly/adaptive on routes of different switch-hop counts. A packet is
// its own event and NewPacket reuses delivered packets, so once the free
// list holds one a packet allocates nothing, however many switches it
// crosses.
func TestForwardingAllocatesNothingPerHop(t *testing.T) {
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Routing = RouteAdaptive
	topo := topology.NewDragonfly(4, 2, 2)
	net, err := New(eng, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hops := 0
	for n := 0; n < topo.NumNodes(); n++ {
		net.AttachHost(n, func(pkt *Packet) { hops = int(pkt.Hops) })
	}
	send := func(dst int) int {
		net.Inject(net.NewPacket(0, dst, 512, nil))
		eng.Run()
		return hops
	}
	var dstFor []int // dstFor[h] is a destination h switch hops away, or 0
	for dst := 1; dst < topo.NumNodes(); dst++ {
		h := send(dst)
		for len(dstFor) <= h {
			dstFor = append(dstFor, 0)
		}
		if dstFor[h] == 0 {
			dstFor[h] = dst
		}
	}
	perHops := map[int]float64{}
	for h, dst := range dstFor {
		if dst == 0 {
			continue
		}
		perHops[h] = testing.AllocsPerRun(100, func() { send(dst) })
		if perHops[h] != 0 {
			t.Errorf("%d-hop route to node %d: %v allocs per packet, want 0 (a packet is its own event)",
				h, dst, perHops[h])
		}
	}
	if len(perHops) < 3 {
		t.Fatalf("routes cover hop counts %v, want at least three different ones", perHops)
	}
	for _, a := range perHops {
		if a != perHops[1] {
			t.Errorf("allocs per packet depend on the hop count (hops: allocs): %v", perHops)
			break
		}
	}
}

// A delivered packet goes back to the free list with its bookkeeping
// cleared, and NewPacket hands it out again.
func TestNewPacketReusesDeliveredPackets(t *testing.T) {
	eng, net := twoNodeNet(t, DefaultConfig())
	var seen *Packet
	net.AttachHost(0, func(*Packet) {})
	net.AttachHost(1, func(pkt *Packet) { seen = pkt })
	first := net.NewPacket(0, 1, 512, "a")
	eng.Schedule(0, func() { net.Inject(first) })
	eng.Run()
	if seen != first || net.FreePackets() != 1 {
		t.Fatalf("delivered %p (sent %p), %d free packets; want the sent packet delivered and freed", seen, first, net.FreePackets())
	}
	again := net.NewPacket(1, 0, 64, "b")
	if again != first {
		t.Fatal("NewPacket allocated although a free packet was available")
	}
	if p := again; p.ID != 0 || p.Hops != 0 || p.QueueWait != 0 || p.Injected != 0 || p.misrouted ||
		p.Src != 1 || p.Dst != 0 || p.Size != 64 || p.Payload != "b" {
		t.Fatalf("reused packet = %+v, want a fresh 1->0 64 B packet carrying \"b\"", *p)
	}
	if net.FreePackets() != 0 {
		t.Fatalf("%d free packets after reuse, want 0", net.FreePackets())
	}
}

// Packets freed faster than they are reused (here: injected as literals,
// never drawn from the list) stop collecting at maxFreePackets, and
// DropFreePackets empties the list.
func TestFreeListIsBounded(t *testing.T) {
	eng, net := twoNodeNet(t, DefaultConfig())
	net.AttachHost(0, func(*Packet) {})
	net.AttachHost(1, func(*Packet) {})
	eng.Schedule(0, func() {
		for i := 0; i < maxFreePackets+10; i++ {
			net.Inject(&Packet{Src: 0, Dst: 1, Size: 1})
		}
	})
	eng.Run()
	if n := net.FreePackets(); n != maxFreePackets {
		t.Fatalf("%d free packets, want the bound %d", n, maxFreePackets)
	}
	net.DropFreePackets()
	if n := net.FreePackets(); n != 0 {
		t.Fatalf("%d free packets after DropFreePackets, want 0", n)
	}
}

// On an empty free list NewPacket carves packets from a chunk: a chunk's
// worth of new packets costs one allocation, not one each. DropFreePackets drops
// the rest of the chunk with the free list.
func TestNewPacketCarvesChunks(t *testing.T) {
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	_, net := twoNodeNet(t, DefaultConfig())
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < sim.SlabChunk; i++ {
			net.NewPacket(0, 1, 64, nil)
		}
	})
	if allocs != 1 {
		t.Errorf("%v allocations for %d new packets, want 1", allocs, sim.SlabChunk)
	}
	net.NewPacket(0, 1, 64, nil)
	net.DropFreePackets()
	if net.pktFree[0].slab.Held() {
		t.Error("NewPacket's chunk is still held after DropFreePackets")
	}
}

// The packet path allocates nothing once warm: a packet drawn from the
// free list is injected as its own event, switched, delivered to a host
// that schedules its continuation (Then), as a NIC does after its receive
// pipeline, and recycled once the continuation has run. Packets that come
// fresh from an empty free list cost one allocation per SlabChunk of
// them, not one each and not one per stage.
func TestPacketPathZeroAlloc(t *testing.T) {
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	eng, net := twoNodeNet(t, DefaultConfig())
	tag := eng.Tag("host")
	thens := 0
	then := func(*Packet) { thens++ }
	host := DeliverFunc(func(pkt *Packet) { tag.ScheduleH(sim.Nanosecond, net.Then(pkt, then)) })
	net.Attach(0, host)
	net.Attach(1, host)
	round := func(packets int) {
		for i := 0; i < packets; i++ {
			tag.ScheduleH(0, net.InjectEvent(net.NewPacket(0, 1, net.MTU(), nil)))
		}
		eng.Run()
	}
	round(1)
	if allocs := testing.AllocsPerRun(100, func() { round(1) }); allocs != 0 {
		t.Errorf("%v allocations per packet from the free list, want 0", allocs)
	}
	if thens != 102 {
		t.Fatalf("%d continuations ran for 102 packets", thens)
	}

	const n = 4 * sim.SlabChunk
	round(n) // the engine's pools grow to n packets in flight
	fresh := testing.AllocsPerRun(10, func() {
		net.DropFreePackets()
		round(n)
	})
	t.Logf("%d fresh packets: %v allocations", n, fresh)
	if limit := float64(n/sim.SlabChunk + 1); fresh > limit {
		t.Errorf("%v allocations for %d fresh packets, want at most %v", fresh, n, limit)
	}
}

// A packet stays 120 bytes: being its own event put its network where a
// bound callback was, and the packets in flight are most of the fabric's
// memory.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 120 {
		t.Fatalf("Packet is %d B, want at most 120", n)
	}
}
