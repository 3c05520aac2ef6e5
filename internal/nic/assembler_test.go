package nic

import (
	"testing"

	"rvma/internal/sim"
)

func TestRangeAssemblerBasicCompletion(t *testing.T) {
	a := new(RangeAssembler)
	a.Init(1024, nil)
	key := MsgKey{Src: 3, MsgID: 7}
	if n, done, dup := a.Add(0, key, 0, 1024, 2048); n != 1024 || done || dup {
		t.Fatalf("first half: n=%d done=%v dup=%v", n, done, dup)
	}
	if a.Done(key) {
		t.Fatal("half-received message reported done")
	}
	if n, done, dup := a.Add(0, key, 1024, 1024, 2048); n != 1024 || !done || dup {
		t.Fatalf("second half: n=%d done=%v dup=%v", n, done, dup)
	}
	if !a.Done(key) {
		t.Fatal("completed message not done")
	}
	if a.Pending() != 0 {
		t.Fatalf("pending = %d after completion", a.Pending())
	}
}

func TestRangeAssemblerDuplicateOffsets(t *testing.T) {
	a := new(RangeAssembler)
	a.Init(1024, nil)
	key := MsgKey{Src: 1, MsgID: 1}
	a.Add(0, key, 0, 1024, 2048)
	// Same offset again while inflight: duplicate, no new bytes.
	if n, done, dup := a.Add(0, key, 0, 1024, 2048); n != 0 || done || !dup {
		t.Fatalf("inflight dup: n=%d done=%v dup=%v", n, done, dup)
	}
	a.Add(0, key, 1024, 1024, 2048)
	// Any packet after completion: duplicate via the done ring.
	for _, off := range []int{0, 1024} {
		if n, done, dup := a.Add(0, key, off, 1024, 2048); n != 0 || done || !dup {
			t.Fatalf("post-done dup at %d: n=%d done=%v dup=%v", off, n, done, dup)
		}
	}
}

func TestRangeAssemblerSinglePacketMessage(t *testing.T) {
	a := new(RangeAssembler)
	a.Init(1024, nil)
	key := MsgKey{Src: 2, MsgID: 9}
	if n, done, dup := a.Add(0, key, 0, 512, 512); n != 512 || !done || dup {
		t.Fatalf("single packet: n=%d done=%v dup=%v", n, done, dup)
	}
	if n, done, dup := a.Add(0, key, 0, 512, 512); n != 0 || done || !dup {
		t.Fatalf("retransmitted single packet: n=%d done=%v dup=%v", n, done, dup)
	}
}

// With a horizon, a done key is remembered until it is older than the
// horizon and an incomplete message's state until its first packet is;
// then a late packet counts as new again (nothing the horizon allows can
// arrive that late). Without one, nothing is forgotten.
func TestRangeAssemblerForgetsPastHorizon(t *testing.T) {
	const h = 100 * sim.Microsecond
	a := new(RangeAssembler)
	a.Init(1024, nil)
	a.SetHorizon(h)
	done, open := MsgKey{Src: 0, MsgID: 1}, MsgKey{Src: 0, MsgID: 2}
	a.Add(0, done, 0, 8, 8)
	a.Add(10*sim.Microsecond, open, 0, 1024, 2048)
	// At exactly the horizon both are still remembered.
	if _, _, dup := a.Add(h, done, 0, 8, 8); !dup {
		t.Fatal("done key forgotten at the horizon")
	}
	if _, _, dup := a.Add(10*sim.Microsecond+h, open, 0, 1024, 2048); !dup {
		t.Fatal("in-flight state forgotten at the horizon")
	}
	// Past it, the next Add forgets both.
	if n, completed, dup := a.Add(10*sim.Microsecond+h+1, MsgKey{Src: 1, MsgID: 1}, 0, 1024, 2048); n != 1024 || completed || dup {
		t.Fatalf("fresh message: n=%d completed=%v dup=%v", n, completed, dup)
	}
	if a.Done(done) || len(a.done) != 0 {
		t.Fatalf("done key still remembered past the horizon (%d remembered)", len(a.done))
	}
	if a.Pending() != 1 {
		t.Fatalf("pending = %d, want only the fresh message", a.Pending())
	}
	if _, _, dup := a.Add(10*sim.Microsecond+h+1, done, 0, 8, 8); dup {
		t.Fatal("forgotten key still reported duplicate")
	}
	// The forgotten incomplete message's packets count fresh.
	if n, completed, dup := a.Add(10*sim.Microsecond+h+1, open, 0, 1024, 2048); n != 1024 || completed || dup {
		t.Fatalf("forgotten in-flight message: n=%d completed=%v dup=%v", n, completed, dup)
	}

	// Without a horizon, nothing is forgotten.
	b := new(RangeAssembler)
	b.Init(1024, nil)
	b.Add(0, done, 0, 8, 8)
	if _, _, dup := b.Add(sim.Second, done, 0, 8, 8); !dup {
		t.Fatal("an assembler without a horizon forgot a done key")
	}
}

// A message longer than 64 MTUs keeps its packet bits past the first word,
// and deduplicates there too.
func TestRangeAssemblerLongMessage(t *testing.T) {
	const mtu, packets = 64, 130
	a := new(RangeAssembler)
	a.Init(mtu, nil)
	key := MsgKey{Src: 5, MsgID: 1}
	for i := packets - 1; i >= 0; i-- {
		n, completed, dup := a.Add(0, key, i*mtu, mtu, packets*mtu)
		if n != mtu || dup || completed != (i == 0) {
			t.Fatalf("packet %d: n=%d completed=%v dup=%v", i, n, completed, dup)
		}
		if i == 100 {
			if _, _, dup := a.Add(0, key, i*mtu, mtu, packets*mtu); !dup {
				t.Fatal("a repeated packet past the first 64 was not a duplicate")
			}
		}
	}
}

// An assembler makes its maps on the first packet, so one that never
// sees a reliable packet holds none.
func TestRangeAssemblerMapsAreLazy(t *testing.T) {
	a := new(RangeAssembler)
	a.Init(1024, nil)
	if a.inflight != nil || a.done != nil || a.Done(MsgKey{}) || a.Pending() != 0 {
		t.Fatal("a fresh assembler holds reassembly state")
	}
	a.Add(0, MsgKey{}, 0, 8, 8)
	if a.done == nil || !a.Done(MsgKey{}) {
		t.Fatal("the first packet did not make the maps")
	}
}
