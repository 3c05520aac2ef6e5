package rdma

import (
	"bytes"
	"encoding/json"
	"testing"
	"unsafe"

	"rvma/internal/fabric"
	"rvma/internal/memory"
	"rvma/internal/metrics"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// rdmaTestQP is the QP index tests exchange two-sided traffic on.
const rdmaTestQP = FenceQP

func pair(t *testing.T, cfg Config, fcfg fabric.Config, seed uint64) (*sim.Engine, *Endpoint, *Endpoint) {
	t.Helper()
	eng := sim.NewEngine(seed)
	net, err := fabric.New(eng, topology.NewSingleSwitch(2), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := nic.DefaultProfile()
	a := NewEndpoint(nic.New(eng, net, 0, pcie.Gen4x16(), prof), cfg)
	b := NewEndpoint(nic.New(eng, net, 1, pcie.Gen4x16(), prof), cfg)
	return eng, a, b
}

func defaultPair(t *testing.T) (*sim.Engine, *Endpoint, *Endpoint) {
	return pair(t, DefaultConfig(), fabric.DefaultConfig(), 1)
}

// handshake performs the Figure 1 negotiation and returns the remote
// buffer handle once the simulation settles it.
func handshake(t *testing.T, eng *sim.Engine, initiator *Endpoint, dst, size int) RemoteBuffer {
	return remoteHandshake(t, eng, initiator, dst, size)
}

func remoteHandshake(t *testing.T, eng *sim.Engine, initiator *Endpoint, dst, size int) RemoteBuffer {
	t.Helper()
	var rb RemoteBuffer
	got := false
	eng.Schedule(0, func() {
		op := initiator.RequestRemoteBuffer(dst, size)
		op.Done.OnComplete(func() {
			rb = op.Done.Value().(RemoteBuffer)
			got = true
		})
	})
	eng.Run()
	if !got {
		t.Fatal("registration handshake never completed")
	}
	return rb
}

func TestRegistrationHandshake(t *testing.T) {
	eng, a, b := defaultPair(t)
	rb := handshake(t, eng, a, 1, 4096)
	if rb.Node != 1 || rb.Size != 4096 || rb.RKey == 0 {
		t.Fatalf("remote buffer = %+v", rb)
	}
	if b.Stats.Handshakes != 1 || b.Stats.Registrations != 1 {
		t.Fatalf("target stats: %+v", b.Stats)
	}
	// The handshake costs at least the registration time plus a round trip.
	if eng.Now() < nic.DefaultProfile().RegistrationTime(4096) {
		t.Fatalf("handshake finished implausibly fast: %v", eng.Now())
	}
}

func TestHandshakeCostExceedsRVMASetup(t *testing.T) {
	// RVMA needs no handshake at all; RDMA's setup is a full round trip
	// plus registration. This asymmetry is the core of Figure 6.
	eng, a, _ := defaultPair(t)
	start := eng.Now()
	handshake(t, eng, a, 1, 1<<20)
	elapsed := eng.Now() - start
	if elapsed < 2*sim.Microsecond {
		t.Fatalf("1 MiB handshake took only %v; expected microseconds", elapsed)
	}
}

func TestPutPlacesData(t *testing.T) {
	eng, a, b := defaultPair(t)
	rb := handshake(t, eng, a, 1, 8192)
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	eng.Schedule(0, func() { a.Put(rb, 100, payload, CompleteNone) })
	eng.Run()
	got := b.Memory().Read(rb.Addr+memory.Addr(100), 5000)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload not placed at remote address")
	}
	if b.Stats.PutsPlaced != 1 || b.Stats.BytesPlaced != 5000 {
		t.Fatalf("target stats: %+v", b.Stats)
	}
}

// A put naming an rkey the target never issued is dropped: nothing is
// placed, and the drop shows in the registry's rdma.drops counter as well
// as in Stats.Drops.
func TestBadRKeyPutCountsInDropsCounter(t *testing.T) {
	eng, a, b := defaultPair(t)
	reg := metrics.NewRegistry()
	b.SetMetrics(reg)
	rb := handshake(t, eng, a, 1, 4096)
	rb.RKey++ // no region on b has this key
	eng.Schedule(0, func() { a.Put(rb, 0, make([]byte, 64), CompleteNone) })
	eng.Run()
	if b.Stats.Drops != 1 || b.Stats.BytesPlaced != 0 {
		t.Fatalf("target stats: %+v", b.Stats)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf, eng.Now()); err != nil {
		t.Fatal(err)
	}
	var snap struct{ Counters map[string]uint64 }
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["rdma.drops"]; got != 1 {
		t.Fatalf("snapshot rdma.drops = %d, want 1", got)
	}
}

func TestLastBytePollCompletesOnStatic(t *testing.T) {
	eng, a, b := defaultPair(t)
	rb := handshake(t, eng, a, 1, 64*1024)
	var mr *MemoryRegion
	for _, m := range b.mrs {
		mr = m
	}
	const total = 60000
	var complete bool
	var doneAt sim.Time
	eng.Schedule(0, func() {
		w := b.WaitLastByte(mr, total)
		w.Done.OnComplete(func() {
			complete = w.Done.Value().(bool)
			doneAt = eng.Now()
		})
		a.Put(rb, 0, make([]byte, total), CompleteLastByte)
	})
	eng.Run()
	if doneAt == 0 {
		t.Fatal("last-byte poll never completed")
	}
	if !complete {
		t.Fatal("on a statically routed network, last-byte completion must be sound")
	}
}

// multipathPair builds endpoints on the two most distant nodes of a small
// fat-tree, where adaptive routing has real alternative paths and can
// reorder data packets against each other.
func multipathPair(t *testing.T, cfg Config, fcfg fabric.Config, seed uint64) (*sim.Engine, *Endpoint, *Endpoint, int) {
	t.Helper()
	eng := sim.NewEngine(seed)
	topo := topology.NewFatTree(4)
	net, err := fabric.New(eng, topo, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := nic.DefaultProfile()
	a := NewEndpoint(nic.New(eng, net, 0, pcie.Gen4x16(), prof), cfg)
	b := NewEndpoint(nic.New(eng, net, topo.NumNodes()-1, pcie.Gen4x16(), prof), cfg)
	return eng, a, b, topo.NumNodes() - 1
}

func TestLastBytePollPrematureOnAdaptive(t *testing.T) {
	// The §IV-D hazard: under adaptive routing the final byte can land
	// before earlier payload bytes, so polling it "completes" a buffer
	// that is still full of holes. At least one seed must exhibit it.
	sawPremature := false
	for seed := uint64(1); seed <= 30 && !sawPremature; seed++ {
		fcfg := fabric.DefaultConfig()
		fcfg.Routing = fabric.RouteAdaptive
		fcfg.AdaptiveJitter = 0.9
		fcfg.MTU = 256 // small packets arrive close together, maximizing reorder
		eng, a, b, dstNode := multipathPair(t, DefaultConfig(), fcfg, seed)
		rb := remoteHandshake(t, eng, a, dstNode, 256*1024)
		var mr *MemoryRegion
		for _, m := range b.mrs {
			mr = m
		}
		const total = 200 * 1024
		eng.Schedule(0, func() {
			w := b.WaitLastByte(mr, total)
			w.Done.OnComplete(func() {
				if !w.Done.Value().(bool) {
					sawPremature = true
				}
			})
			a.Put(rb, 0, make([]byte, total), CompleteLastByte)
		})
		eng.Run()
	}
	if !sawPremature {
		t.Fatal("adaptive routing never produced a premature last-byte completion in 30 seeds")
	}
}

func TestSendRecvFenceHoldsUntilDataLands(t *testing.T) {
	// The completion send must never be delivered before all put bytes,
	// even when adaptive routing delivers it early.
	for seed := uint64(1); seed <= 10; seed++ {
		fcfg := fabric.DefaultConfig()
		fcfg.Routing = fabric.RouteAdaptive
		fcfg.AdaptiveJitter = 0.9
		eng, a, b := pair(t, DefaultConfig(), fcfg, seed)
		rb := handshake(t, eng, a, 1, 256*1024)
		var mr *MemoryRegion
		for _, m := range b.mrs {
			mr = m
		}
		const total = 100 * 1024
		var bytesAtCompletion int
		eng.Schedule(0, func() {
			recv := b.PostRecv(0, rdmaTestQP)
			recv.Done.OnComplete(func() { bytesAtCompletion = mr.BytesReceived })
			a.Put(rb, 0, make([]byte, total), CompleteSendRecv)
		})
		eng.Run()
		if bytesAtCompletion < total {
			t.Fatalf("seed %d: recv completed with only %d/%d bytes landed", seed, bytesAtCompletion, total)
		}
	}
}

func TestSendRecvCostsMoreThanLastByte(t *testing.T) {
	// The measured penalty of Figures 4/5: specification-compliant
	// completion (trailing send/recv) is slower than last-byte polling.
	oneWay := func(scheme CompletionScheme) sim.Time {
		eng, a, b := defaultPair(t)
		rb := handshake(t, eng, a, 1, 4096)
		var mr *MemoryRegion
		for _, m := range b.mrs {
			mr = m
		}
		start := eng.Now()
		var done sim.Time
		eng.Schedule(0, func() {
			switch scheme {
			case CompleteLastByte:
				w := b.WaitLastByte(mr, 1024)
				w.Done.OnComplete(func() { done = eng.Now() })
			case CompleteSendRecv:
				r := b.PostRecv(0, rdmaTestQP)
				r.Done.OnComplete(func() { done = eng.Now() })
			}
			a.Put(rb, 0, make([]byte, 1024), scheme)
		})
		eng.Run()
		if done == 0 {
			t.Fatal("completion never observed")
		}
		return done - start
	}
	lb := oneWay(CompleteLastByte)
	sr := oneWay(CompleteSendRecv)
	if sr <= lb {
		t.Fatalf("send/recv completion (%v) must cost more than last-byte (%v)", sr, lb)
	}
}

func TestTwoSidedSendRecv(t *testing.T) {
	eng, a, b := defaultPair(t)
	var got int
	eng.Schedule(0, func() {
		r := b.PostRecv(0, rdmaTestQP)
		r.Done.OnComplete(func() { got = r.Done.Value().(int) })
		a.Send(1, rdmaTestQP, 3000)
	})
	eng.Run()
	if got != 3000 {
		t.Fatalf("recv completed with size %d, want 3000", got)
	}
	if b.Stats.SendsDelivered != 1 {
		t.Fatalf("stats: %+v", b.Stats)
	}
}

func TestSendWaitsForPostedRecv(t *testing.T) {
	eng, a, b := defaultPair(t)
	var doneAt sim.Time
	eng.Schedule(0, func() { a.Send(1, rdmaTestQP, 64) })
	// Post the receive long after the send arrives.
	eng.Schedule(sim.Millisecond, func() {
		r := b.PostRecv(0, rdmaTestQP)
		r.Done.OnComplete(func() { doneAt = eng.Now() })
	})
	eng.Run()
	if doneAt < sim.Millisecond {
		t.Fatalf("recv completed at %v, before it was posted", doneAt)
	}
}

func TestSendsMatchRecvsInOrder(t *testing.T) {
	eng, a, b := defaultPair(t)
	var order []int
	eng.Schedule(0, func() {
		for i := 1; i <= 3; i++ {
			i := i
			r := b.PostRecv(0, rdmaTestQP)
			r.Done.OnComplete(func() { order = append(order, i) })
		}
		a.Send(1, rdmaTestQP, 100)
		a.Send(1, rdmaTestQP, 200)
		a.Send(1, rdmaTestQP, 300)
	})
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("recv completion order = %v", order)
	}
}

// A released receive goes back to its endpoint, and the next PostRecv
// hands it out again. Posted again, it completes exactly once, with the
// size of the send it matches: the send after that waits for a receive of
// its own instead of completing the reused one a second time.
func TestReleasedRecvPostedAgainCompletesOnce(t *testing.T) {
	eng, a, b := defaultPair(t)
	var first *RecvOp
	eng.Schedule(0, func() {
		first = b.PostRecv(0, rdmaTestQP)
		a.Send(1, rdmaTestQP, 100)
	})
	eng.Run()
	if !first.Done.Done() || first.Done.Value() != 100 {
		t.Fatalf("first receive: done=%v value=%v", first.Done.Done(), first.Done.Value())
	}
	b.ReleaseRecv(first)

	completions, size := 0, 0
	eng.Schedule(0, func() {
		r := b.PostRecv(0, rdmaTestQP)
		if r != first {
			t.Error("PostRecv did not reuse the released receive")
		}
		if r.Done.Done() {
			t.Error("a reused receive is posted already complete")
		}
		r.Done.OnComplete(func() {
			completions++
			size = r.Done.Value().(int)
		})
		a.Send(1, rdmaTestQP, 300)
		a.Send(1, rdmaTestQP, 500)
	})
	eng.Run()
	if completions != 1 || size != 300 {
		t.Fatalf("reused receive completed %d times, size %d; want once, 300", completions, size)
	}
	if b.PendingSendsHeld() != 1 {
		t.Fatalf("%d sends held, want the 500-byte one waiting for a receive", b.PendingSendsHeld())
	}
}

// A released byte wait is what the next WaitBytes returns, and it
// resolves once, for its new target.
func TestReleasedByteWaitIsReused(t *testing.T) {
	eng, a, b := defaultPair(t)
	rb := handshake(t, eng, a, 1, 8192)
	var first *sim.Future
	eng.Schedule(0, func() {
		first = b.WaitBytes(0, 1000)
		a.PutN(rb, 0, 1000, CompleteNone)
	})
	eng.Run()
	if !first.Done() {
		t.Fatal("byte wait for 1000 bytes never resolved")
	}
	b.ReleaseWait(first)

	completions := 0
	eng.Schedule(0, func() {
		f := b.WaitBytes(0, 3000)
		if f != first {
			t.Error("WaitBytes did not reuse the released future")
		}
		f.OnComplete(func() { completions++ })
		a.PutN(rb, 0, 1000, CompleteNone)
	})
	eng.Run()
	if completions != 0 {
		t.Fatal("byte wait for 3000 bytes resolved at 2000")
	}
	eng.Schedule(0, func() { a.PutN(rb, 0, 1000, CompleteNone) })
	eng.Run()
	if completions != 1 {
		t.Fatalf("byte wait resolved %d times at 3000 bytes, want once", completions)
	}
}

// Releasing a handle that has not completed would hand it out again while
// it is still queued; simdebug catches it.
func TestDebugCatchesReleaseOfPendingHandle(t *testing.T) {
	if !sim.DebugEnabled {
		t.Skip("the check is a simdebug assertion")
	}
	for _, tc := range []struct {
		name    string
		release func(ep *Endpoint)
	}{
		{"recv", func(ep *Endpoint) { ep.ReleaseRecv(ep.PostRecv(0, rdmaTestQP)) }},
		{"byte wait", func(ep *Endpoint) { ep.ReleaseWait(ep.WaitBytes(0, 1)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, b := defaultPair(t)
			defer func() {
				if recover() == nil {
					t.Fatal("releasing a pending handle did not panic")
				}
			}()
			tc.release(b)
		})
	}
}

func TestPutOutOfBoundsPanics(t *testing.T) {
	eng, a, _ := defaultPair(t)
	rb := handshake(t, eng, a, 1, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds put should panic")
		}
	}()
	a.Put(rb, 100, make([]byte, 64), CompleteNone)
}

func TestFenceStatsCount(t *testing.T) {
	// Under heavy jitter the fence should actually hold sends sometimes.
	held := uint64(0)
	cfg := DefaultConfig()
	cfg.PipelinedFence = true // only the pipelined path can race data
	for seed := uint64(1); seed <= 10; seed++ {
		fcfg := fabric.DefaultConfig()
		fcfg.Routing = fabric.RouteAdaptive
		fcfg.AdaptiveJitter = 0.9
		eng, a, b := pair(t, cfg, fcfg, seed)
		rb := handshake(t, eng, a, 1, 256*1024)
		eng.Schedule(0, func() {
			b.PostRecv(0, rdmaTestQP)
			a.Put(rb, 0, make([]byte, 128*1024), CompleteSendRecv)
		})
		eng.Run()
		held += b.Stats.FencesHeld
	}
	if held == 0 {
		t.Fatal("fence was never exercised across 10 jittered seeds")
	}
}

func TestTimingOnlyPut(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CarryData = false
	eng, a, b := pair(t, cfg, fabric.DefaultConfig(), 1)
	rb := handshake(t, eng, a, 1, 8192)
	completed := false
	eng.Schedule(0, func() {
		r := b.PostRecv(0, rdmaTestQP)
		r.Done.OnComplete(func() { completed = true })
		a.PutN(rb, 0, 8192, CompleteSendRecv)
	})
	eng.Run()
	if !completed {
		t.Fatal("timing-only put with fence never completed")
	}
}

// lossyHandshake retries the registration handshake until it survives the
// failure injection (request or reply packets can be dropped too).
func lossyHandshake(t *testing.T, eng *sim.Engine, initiator *Endpoint, dst, size int) (RemoteBuffer, bool) {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		op := initiator.RequestRemoteBuffer(dst, size)
		eng.Run()
		if op.Done.Done() {
			return op.Done.Value().(RemoteBuffer), true
		}
	}
	return RemoteBuffer{}, false
}

func TestLastBytePollFalselyCompletesUnderDrops(t *testing.T) {
	// The failure-injection contrast to RVMA's hole-proof counting: if a
	// middle packet is lost but the final one lands, last-byte polling
	// reports completion over a holed buffer. At least one seed must show
	// it (and rvma's TestDropsNeverFalselyComplete shows RVMA never does).
	sawFalseComplete := false
	for seed := uint64(1); seed <= 40 && !sawFalseComplete; seed++ {
		fcfg := fabric.DefaultConfig()
		fcfg.Faults = &fabric.FaultPlan{DropRate: 0.15}
		eng, a, b := pair(t, DefaultConfig(), fcfg, seed)
		rb, ok := lossyHandshake(t, eng, a, 1, 64*1024)
		if !ok {
			continue
		}
		mr := b.RegionByKey(rb.RKey)
		const total = 32 * 1024 // 16 packets
		eng.Schedule(0, func() {
			w := b.WaitLastByte(mr, total)
			w.Done.OnComplete(func() {
				if !w.Done.Value().(bool) {
					sawFalseComplete = true
				}
			})
			a.Put(rb, 0, make([]byte, total), CompleteLastByte)
		})
		eng.Run()
	}
	if !sawFalseComplete {
		t.Fatal("expected at least one false last-byte completion across 40 lossy seeds")
	}
}

func TestFenceSendNeverCompletesOnHoledBuffer(t *testing.T) {
	// Spec-compliant completion stays safe under loss: if any data packet
	// (or the fence itself) is dropped, the recv simply never completes —
	// detectable by timeout — rather than reporting a holed buffer done.
	for seed := uint64(1); seed <= 15; seed++ {
		fcfg := fabric.DefaultConfig()
		fcfg.Faults = &fabric.FaultPlan{DropRate: 0.1}
		eng, a, b := pair(t, DefaultConfig(), fcfg, seed)
		rb, ok := lossyHandshake(t, eng, a, 1, 64*1024)
		if !ok {
			continue
		}
		mr := b.RegionByKey(rb.RKey)
		const total = 32 * 1024
		completedHoled := false
		eng.Schedule(0, func() {
			r := b.PostRecv(0, rdmaTestQP)
			r.Done.OnComplete(func() {
				if mr.BytesReceived < total {
					completedHoled = true
				}
			})
			a.Put(rb, 0, make([]byte, total), CompleteSendRecv)
		})
		eng.Run()
		if completedHoled {
			t.Fatalf("seed %d: fenced completion fired with a holed buffer", seed)
		}
	}
}

// TestPutNAllocationCeiling pins what one PutN with the trailing
// send/recv fence, and one plain Send, cost on the heap from issue to the
// target's receive completion: only what the test itself holds. A fenced
// put costs the target's RecvOp, which the test never releases and which
// is carved from the shard's slab, one allocation per 64 receives, so
// under one per put; its PutOp (which carries the data and fence commands
// and owns every continuation of both) goes back to the endpoint's free
// list once its local completion, its packets, its transport ACK and its
// fence packet are spent. A send costs the RecvOp plus the receive's
// value: the send's size, which boxes into an 8-byte allocation from 256
// bytes up (the MTU-sized sends here); its SendOp is recycled the same
// way. No
// packet, event, closure, pending-send record or queue slot allocates in
// the steady state. A 4-packet message costs exactly what a 1-packet one
// does. A new allocation on the put, fence or send path fails it.
func TestPutNAllocationCeiling(t *testing.T) {
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		op      func(src, dst *Endpoint, rb RemoteBuffer, size int, recvd func())
	}{
		{"fenced PutN", 0, func(src, dst *Endpoint, rb RemoteBuffer, size int, recvd func()) {
			dst.PostRecv(0, FenceQP).Done.OnComplete(recvd)
			src.PutN(rb, 0, size, CompleteSendRecv)
		}},
		{"Send", 1, func(src, dst *Endpoint, rb RemoteBuffer, size int, recvd func()) {
			dst.PostRecv(0, FenceQP).Done.OnComplete(recvd)
			src.Send(1, FenceQP, size)
		}},
	} {
		perPackets := map[int]float64{}
		for _, packets := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.CarryData = false
			fcfg := fabric.DefaultConfig()
			eng, src, dst := pair(t, cfg, fcfg, 1)
			size := packets * fcfg.MTU
			rb := handshake(t, eng, src, 1, size)
			done := 0
			recvd := func() { done++ }
			op := func() { c.op(src, dst, rb, size, recvd) }
			allocs := testing.AllocsPerRun(200, func() {
				eng.Schedule(0, op)
				eng.Run()
			})
			if done != 201 {
				t.Fatalf("%s, %d packets: %d of 201 completed", c.name, packets, done)
			}
			if allocs > c.ceiling {
				t.Errorf("%s, %d packets: %v allocs, want at most %v", c.name, packets, allocs, c.ceiling)
			}
			perPackets[packets] = allocs
		}
		if perPackets[4] != perPackets[1] {
			t.Errorf("a 4-packet %s costs %v allocs, a 1-packet one %v: the per-message cost grew per packet",
				c.name, perPackets[4], perPackets[1])
		}
	}
}

// A handshake's RegOp and its target's registration record, PutOp
// (twice), SendOp and Attempt embed a command: a field added to it must
// not move it past the 128 B size class. A transport ACK allocates
// nothing: its payload is the operation it acknowledges.
func TestCommandFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(command{}); n > 128 {
		t.Fatalf("command is %d B, past the 128 B size class", n)
	}
}

// bufferAt records the RemoteBuffer a NegotiateBuffer handshake hands its
// handler, and when.
type bufferAt struct {
	eng *sim.Engine
	rb  RemoteBuffer
	at  sim.Time
	n   int
}

func (b *bufferAt) BufferReady(rb RemoteBuffer) { b.rb, b.at, b.n = rb, b.eng.Now(), b.n+1 }

// A handshake NegotiateBuffer starts is the handshake RequestRemoteBuffer
// starts: its handler gets the same RemoteBuffer, once, at the time Done
// would have completed, after the same number of events.
func TestNegotiateBufferMatchesRequestRemoteBuffer(t *testing.T) {
	engA, a, _ := defaultPair(t)
	var op *RegOp
	engA.Schedule(0, func() { op = a.RequestRemoteBuffer(1, 4096) })
	engA.Run()
	if !op.Done.Done() {
		t.Fatal("RequestRemoteBuffer never completed")
	}
	engB, b, _ := defaultPair(t)
	h := &bufferAt{eng: engB}
	engB.Schedule(0, func() { b.NegotiateBuffer(1, 4096, h) })
	engB.Run()
	if h.n != 1 {
		t.Fatalf("the handler ran %d times, want once", h.n)
	}
	if want := op.Done.Value().(RemoteBuffer); h.rb != want || h.at != op.Done.CompletedAt() {
		t.Fatalf("handler got %+v at %v, RequestRemoteBuffer %+v at %v", h.rb, h.at, want, op.Done.CompletedAt())
	}
	if engA.EventsExecuted() != engB.EventsExecuted() {
		t.Fatalf("%d events with the handler, %d with the future", engB.EventsExecuted(), engA.EventsExecuted())
	}
}

// A Figure 1 handshake through NegotiateBuffer costs one heap object, the
// bound method of the target's timed registration, whose cost depends on
// the region's size. The initiator's RegOp, which embeds its request, the
// target's registration record, which embeds the reply, and the
// MemoryRegion it registers are carved from the shard's slabs, and the
// rkey table grows by doubling. The request posts and the reply is reaped
// through the shard's stages, and the RemoteBuffer reaches the handler
// unboxed.
func TestHandshakeAllocations(t *testing.T) {
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	eng, a, _ := defaultPair(t)
	h := &bufferAt{eng: eng}
	negotiate := func() { a.NegotiateBuffer(1, 4096, h) }
	allocs := testing.AllocsPerRun(200, func() {
		eng.Schedule(0, negotiate)
		eng.Run()
	})
	if h.n != 201 {
		t.Fatalf("%d of 201 handshakes completed", h.n)
	}
	if allocs > 2 {
		t.Errorf("%v allocs per handshake, want at most 2", allocs)
	}
	t.Logf("%v allocs per handshake", allocs)
}
