package nic

import "rvma/internal/sim"

// RangeAssembler is the duplicate-aware sibling of Assembler for reliable
// protocols that retransmit. The sum-based Assembler credits every arrived
// byte, so a retransmitted packet inflates the received count and can
// falsely complete a message that still has holes — exactly the corruption
// the recovery layer must not introduce. RangeAssembler instead tracks
// which packets of each message have landed, one bit per MTU-aligned
// offset: message segmentation is deterministic (SendMessage cuts
// MTU-aligned chunks), so a retransmit reproduces the original offsets
// and duplicates are exact re-hits.
//
// Completed messages are remembered so a straggler duplicate arriving
// after completion is recognized (and can be re-acked) instead of opening
// a phantom new reassembly. With a horizon set (SetHorizon), a message's
// state is forgotten once it is older than the horizon: a completed
// message's key that long after its completion, an incomplete message's
// state that long after its first packet. The horizon is how long after
// an operation starts its packets can still arrive, so nothing forgotten
// can be hit again. Forgetting is lazy, done by the next Add, so it adds
// no events. Without a horizon every message is remembered.
type RangeAssembler struct {
	mtu     int
	horizon sim.Time
	// The maps are made by the first Add: an endpoint that never sees a
	// reliable packet allocates none.
	inflight map[MsgKey]rangeState
	done     map[MsgKey]struct{}
	// opened and finished list in-flight and done keys in the order of
	// their time stamps, for forgetting past the horizon. Their first
	// rings come from rings, which the endpoints of a shard share.
	opened, finished sim.FIFO[stamped]
	rings            *AssemblerRings
}

// AssemblerRings is the slab the range assemblers of one shard take their
// queues' first rings from (sim.FIFO.PushIn): most assemblers never
// remember more than a few messages at once.
type AssemblerRings struct{ slab sim.Slab[stamped] }

// Drop lets the slab's current chunk go.
func (r *AssemblerRings) Drop() { r.slab.Drop() }

// Held reports whether the slab holds a chunk.
func (r *AssemblerRings) Held() bool { return r.slab.Held() }

// rangeState is one incomplete message: which of its packets landed.
type rangeState struct {
	seen     uint64   // packets 0-63 that have landed, bit i for offset i*mtu
	more     []uint64 // packets from 64 on, for messages longer than 64 MTUs
	received int
	total    int
}

// stamped is a key with the time its state was made or completed.
type stamped struct {
	key MsgKey
	at  sim.Time
}

// Init empties a for a fabric whose packets carry mtu payload bytes,
// taking its queues' first rings from rings; a nil rings gives a its own.
// Endpoints hold their assembler by value and initialize it in place.
func (a *RangeAssembler) Init(mtu int, rings *AssemblerRings) {
	if mtu <= 0 {
		panic("nic: range assembler needs a positive MTU")
	}
	if rings == nil {
		rings = new(AssemblerRings)
	}
	*a = RangeAssembler{mtu: mtu, rings: rings}
}

// SetHorizon makes the assembler forget a message's state once it is
// older than h (see RangeAssembler); zero remembers every message.
func (a *RangeAssembler) SetHorizon(h sim.Time) { a.horizon = h }

// Add records a packet, arriving at now, carrying size bytes at byte
// offset within message key of the given total size. It returns the
// number of bytes that were new (0 for a duplicate), whether this packet
// completed the message, and whether the packet was a duplicate of one
// already received.
func (a *RangeAssembler) Add(now sim.Time, key MsgKey, offset, size, total int) (newBytes int, completed, duplicate bool) {
	if a.done == nil {
		a.inflight = make(map[MsgKey]rangeState)
		a.done = make(map[MsgKey]struct{})
	}
	if a.horizon > 0 {
		a.forget(now)
	}
	if _, ok := a.done[key]; ok {
		return 0, false, true
	}
	st, ok := a.inflight[key]
	if !ok {
		if size >= total {
			a.markDone(now, key)
			return size, true, false
		}
		st = rangeState{total: total}
		if a.horizon > 0 {
			a.opened.PushIn(&a.rings.slab, stamped{key: key, at: now})
		}
	}
	if sim.DebugEnabled {
		sim.Assertf(offset%a.mtu == 0, "nic: reliable packet offset %d is not a multiple of the MTU %d", offset, a.mtu)
	}
	if !st.mark(offset / a.mtu) {
		return 0, false, true
	}
	st.received += size
	if st.received >= st.total {
		delete(a.inflight, key)
		a.markDone(now, key)
		return size, true, false
	}
	a.inflight[key] = st
	return size, false, false
}

// mark sets packet i's bit, reporting false if it was already set.
func (st *rangeState) mark(i int) bool {
	w, bit := &st.seen, uint64(1)<<(i%64)
	if i >= 64 {
		j := i/64 - 1
		if j >= len(st.more) {
			st.more = append(st.more, make([]uint64, j+1-len(st.more))...)
		}
		w = &st.more[j]
	}
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// Done reports whether key completed reassembly and is still remembered.
func (a *RangeAssembler) Done(key MsgKey) bool {
	_, ok := a.done[key]
	return ok
}

// Reset forgets every message and releases the maps and queues, which
// are sized by the most messages the horizon ever held. Call it between
// runs, when no packet is left in flight to hit what it forgets.
func (a *RangeAssembler) Reset() {
	a.inflight, a.done = nil, nil
	a.opened, a.finished = sim.FIFO[stamped]{}, sim.FIFO[stamped]{}
}

// Pending returns the number of incomplete messages (for leak tests).
func (a *RangeAssembler) Pending() int { return len(a.inflight) }

func (a *RangeAssembler) markDone(now sim.Time, key MsgKey) {
	a.done[key] = struct{}{}
	if a.horizon > 0 {
		a.finished.PushIn(&a.rings.slab, stamped{key: key, at: now})
	}
}

// forget drops the done keys and in-flight states older than the horizon.
// An opened key whose message has completed is no longer in flight, and
// deleting it is a no-op.
func (a *RangeAssembler) forget(now sim.Time) {
	for a.finished.Len() > 0 && now-a.finished.Front().at > a.horizon {
		delete(a.done, a.finished.Pop().key)
	}
	for a.opened.Len() > 0 && now-a.opened.Front().at > a.horizon {
		delete(a.inflight, a.opened.Pop().key)
	}
}
