package nic

import (
	"testing"
	"testing/quick"

	"rvma/internal/fabric"
	"rvma/internal/pcie"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

func pairWithNICs(t *testing.T) (*sim.Engine, *NIC, *NIC) {
	t.Helper()
	eng := sim.NewEngine(1)
	net, err := fabric.New(eng, topology.NewSingleSwitch(2), fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := New(eng, net, 0, pcie.Gen4x16(), DefaultProfile())
	b := New(eng, net, 1, pcie.Gen4x16(), DefaultProfile())
	return eng, a, b
}

type recorded struct {
	off, size int
	at        sim.Time
}

func TestSendMessageSegmentation(t *testing.T) {
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(pkt *fabric.Packet) {})
	var got []recorded
	b.SetHandler(func(pkt *fabric.Packet) {
		meta := pkt.Payload.([2]int)
		got = append(got, recorded{meta[0], meta[1], eng.Now()})
	})
	const total = 5000 // MTU 2048 -> packets of 2048, 2048, 904
	eng.Schedule(0, func() {
		a.SendMessage(1, total, func(off, size int) any { return [2]int{off, size} })
	})
	eng.Run()
	if len(got) != 3 {
		t.Fatalf("received %d packets, want 3", len(got))
	}
	wantSizes := []int{2048, 2048, 904}
	sum := 0
	for i, r := range got {
		if r.size != wantSizes[i] {
			t.Fatalf("packet %d size = %d, want %d", i, r.size, wantSizes[i])
		}
		sum += r.size
	}
	if sum != total {
		t.Fatalf("byte sum = %d, want %d", sum, total)
	}
	if a.PacketsSent != 3 || b.PacketsReceived != 3 || a.MessagesSent != 1 {
		t.Fatalf("stats: sent=%d recv=%d msgs=%d", a.PacketsSent, b.PacketsReceived, a.MessagesSent)
	}
}

// Send cuts a message as SendMessage does, and every packet carries the
// one payload it was given, at its offset within the message.
func TestSendCarriesOnePayload(t *testing.T) {
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(pkt *fabric.Packet) {})
	cmd := new(int)
	var offs []int32
	b.SetHandler(func(pkt *fabric.Packet) {
		if pkt.Payload != cmd {
			t.Errorf("packet at offset %d carries %v, want the message's payload", pkt.Offset, pkt.Payload)
		}
		offs = append(offs, pkt.Offset)
	})
	eng.Schedule(0, func() { a.Send(1, 5000, cmd) })
	eng.Run()
	if len(offs) != 3 || offs[0] != 0 || offs[1] != 2048 || offs[2] != 4096 {
		t.Fatalf("packet offsets %v, want [0 2048 4096]", offs)
	}
}

func TestZeroByteMessage(t *testing.T) {
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(pkt *fabric.Packet) {})
	count := 0
	b.SetHandler(func(pkt *fabric.Packet) { count++ })
	eng.Schedule(0, func() {
		a.SendMessage(1, 0, func(off, size int) any { return nil })
	})
	eng.Run()
	if count != 1 {
		t.Fatalf("zero-byte message should still produce one (header-only) packet, got %d", count)
	}
}

func TestLocalCompletionAfterLastInjection(t *testing.T) {
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(pkt *fabric.Packet) {})
	var lastRecv sim.Time
	b.SetHandler(func(pkt *fabric.Packet) { lastRecv = eng.Now() })
	var localDone sim.Time
	eng.Schedule(0, func() {
		a.SendMessage(1, 8192, func(off, size int) any { return nil }, sim.Func(func() { localDone = eng.Now() }))
	})
	eng.Run()
	if localDone == 0 {
		t.Fatal("local completion never fired")
	}
	if localDone >= lastRecv {
		t.Fatalf("local completion %v should precede remote delivery %v", localDone, lastRecv)
	}
}

func TestRecvPipelineSerializes(t *testing.T) {
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(pkt *fabric.Packet) {})
	var times []sim.Time
	b.SetHandler(func(pkt *fabric.Packet) { times = append(times, eng.Now()) })
	eng.Schedule(0, func() {
		// Tiny packets arrive nearly back-to-back; the receive pipeline's
		// per-packet processing must keep handler invocations apart by at
		// least its processing time when arrivals are tighter than that.
		for i := 0; i < 5; i++ {
			a.SendMessage(1, 1, func(off, size int) any { return nil })
		}
	})
	eng.Run()
	prof := DefaultProfile()
	minGap := prof.RecvPacketProc + prof.LookupLatency
	ser := sim.SerializationTime(1+fabric.HeaderBytes, fabric.DefaultConfig().LinkGbps)
	if ser >= minGap {
		t.Skip("arrivals not tighter than pipeline; adjust test parameters")
	}
	for i := 1; i < len(times); i++ {
		if gap := times[i] - times[i-1]; gap < minGap {
			t.Fatalf("handler gap %d = %v, want >= %v", i, gap, minGap)
		}
	}
}

func TestSetHandlerTwicePanics(t *testing.T) {
	_, a, _ := pairWithNICs(t)
	a.SetHandler(func(pkt *fabric.Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second SetHandler should panic")
		}
	}()
	a.SetHandler(func(pkt *fabric.Packet) {})
}

func TestRegistrationTime(t *testing.T) {
	p := DefaultProfile()
	if got := p.RegistrationTime(1); got != p.RegistrationBase+p.RegistrationPerPage {
		t.Fatalf("1-byte registration = %v", got)
	}
	if got := p.RegistrationTime(4096); got != p.RegistrationBase+p.RegistrationPerPage {
		t.Fatalf("one-page registration = %v", got)
	}
	if got := p.RegistrationTime(4097); got != p.RegistrationBase+2*p.RegistrationPerPage {
		t.Fatalf("two-page registration = %v", got)
	}
	if got := p.RegistrationTime(1 << 20); got != p.RegistrationBase+256*p.RegistrationPerPage {
		t.Fatalf("1 MiB registration = %v", got)
	}
}

func TestAssemblerSinglePacket(t *testing.T) {
	a := new(Assembler)
	if !a.Add(MsgKey{Src: 1, MsgID: 9}, 100, 100) {
		t.Fatal("single-packet message should complete on first Add")
	}
	if a.Pending() != 0 {
		t.Fatal("no state should linger for single-packet messages")
	}
}

func TestAssemblerMultiPacketAnyOrder(t *testing.T) {
	a := new(Assembler)
	k := MsgKey{Src: 2, MsgID: 5}
	if a.Add(k, 1000, 3000) {
		t.Fatal("incomplete message reported complete")
	}
	if a.Add(k, 1000, 3000) {
		t.Fatal("incomplete message reported complete")
	}
	if !a.Add(k, 1000, 3000) {
		t.Fatal("final chunk should complete the message")
	}
	if a.Pending() != 0 {
		t.Fatalf("pending = %d after completion", a.Pending())
	}
}

func TestAssemblerInterleavedMessages(t *testing.T) {
	a := new(Assembler)
	k1, k2 := MsgKey{Src: 1, MsgID: 1}, MsgKey{Src: 1, MsgID: 2}
	a.Add(k1, 10, 20)
	a.Add(k2, 10, 20)
	if a.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", a.Pending())
	}
	if !a.Add(k2, 10, 20) || !a.Add(k1, 10, 20) {
		t.Fatal("interleaved messages must complete independently")
	}
}

// Property: for any chunking of a message, the assembler completes exactly
// once, on the chunk that reaches the total.
func TestAssemblerProperty(t *testing.T) {
	f := func(chunksRaw []uint8) bool {
		chunks := make([]int, 0, len(chunksRaw))
		total := 0
		for _, c := range chunksRaw {
			v := int(c)%512 + 1
			chunks = append(chunks, v)
			total += v
		}
		if total == 0 {
			return true
		}
		a := new(Assembler)
		k := MsgKey{Src: 3, MsgID: 7}
		completions := 0
		for i, c := range chunks {
			if a.Add(k, c, total) {
				completions++
				if i != len(chunks)-1 {
					return false // completed before all chunks arrived
				}
			}
		}
		return completions == 1 && a.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSendThroughputRespectsLineRate(t *testing.T) {
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(pkt *fabric.Packet) {})
	var last sim.Time
	bytes := 0
	b.SetHandler(func(pkt *fabric.Packet) {
		last = eng.Now()
		bytes += pkt.Size
	})
	const total = 1 << 20
	eng.Schedule(0, func() {
		a.SendMessage(1, total, func(off, size int) any { return nil })
	})
	eng.Run()
	if bytes != total {
		t.Fatalf("delivered %d bytes, want %d", bytes, total)
	}
	// Effective rate must not exceed the link's 100 Gbps.
	gbps := float64(bytes) * 8 / last.Nanoseconds()
	if gbps > 100 {
		t.Fatalf("effective delivery rate %.1f Gbps exceeds line rate", gbps)
	}
	// And must achieve a decent fraction of it for a 1 MiB transfer.
	if gbps < 50 {
		t.Fatalf("effective delivery rate %.1f Gbps unreasonably low", gbps)
	}
}

func TestInjectControlSkipsBus(t *testing.T) {
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(pkt *fabric.Packet) {})
	var got any
	b.SetHandler(func(pkt *fabric.Packet) { got = pkt.Payload })
	busBefore := a.Bus().Transactions
	eng.Schedule(0, func() { a.InjectControl(1, "ack") })
	eng.Run()
	if got != "ack" {
		t.Fatalf("control payload = %v", got)
	}
	if a.Bus().Transactions != busBefore {
		t.Fatal("NIC-generated control packets must not cross the host bus")
	}
	if a.PacketsSent != 1 {
		t.Fatalf("packets sent = %d", a.PacketsSent)
	}
}

// TestSendMessageAllocatesNoClosurePerPacket sends messages of one and of
// nine packets through the send pipeline, the fabric and the receive
// pipeline to the handler. No stage of a packet's path allocates a
// closure, and the packet itself comes off the fabric's free list, so an
// extra packet allocates nothing.
func TestSendMessageAllocatesNoClosurePerPacket(t *testing.T) {
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(*fabric.Packet) {})
	b.SetHandler(func(*fabric.Packet) {})
	build := func(off, size int) any { return nil }
	send := func(packets int) float64 {
		return testing.AllocsPerRun(100, func() {
			a.SendMessage(1, packets*a.MTU(), build)
			eng.Run()
		})
	}
	one, nine := send(1), send(9)
	if perPacket := (nine - one) / 8; perPacket != 0 {
		t.Fatalf("%v allocs per extra packet (1 packet: %v, 9 packets: %v), want 0 (recycled packets)",
			perPacket, one, nine)
	}
}

// TestSendMessageDone checks the caller's continuation: it runs once, as
// the event at which the last packet enters the fabric (when the send
// pipeline drains), and a send with it allocates nothing once the
// fabric's free list holds its packets.
func TestSendMessageDone(t *testing.T) {
	eng, a, b := pairWithNICs(t)
	a.SetHandler(func(*fabric.Packet) {})
	b.SetHandler(func(*fabric.Packet) {})
	build := func(off, size int) any { return nil }
	const packets = 4
	var want sim.Time
	var ran []sim.Time
	eng.Schedule(0, func() {
		a.SendMessage(1, packets*a.MTU(), build, sim.Func(func() { ran = append(ran, eng.Now()) }))
		want = eng.Now() + a.SendBacklog()
	})
	eng.Run()
	if len(ran) != 1 || ran[0] != want {
		t.Fatalf("done ran at %v, want once at %v (last packet handed to the fabric)", ran, want)
	}

	if !sim.DebugEnabled {
		count := 0
		done := sim.Func(func() { count++ })
		allocs := testing.AllocsPerRun(100, func() {
			a.SendMessage(1, packets*a.MTU(), build, done)
			eng.Run()
		})
		if allocs != 0 {
			t.Fatalf("%v allocs per %d-packet send with done, want 0 (recycled packets)", allocs, packets)
		}
		if count != 101 {
			t.Fatalf("done ran %d times over 101 sends", count)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("SendMessage with two done callbacks should panic")
		}
	}()
	a.SendMessage(1, 1, build, sim.Func(func() {}), sim.Func(func() {}))
}
