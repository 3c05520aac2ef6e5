package fabric

import "rvma/internal/sim"

// This file is the fabric's simdebug invariant layer; every call site is
// guarded by `if sim.DebugEnabled`, so normal builds pay nothing.

// debugCheckHop bounds a packet's switch-hop count. Minimal routes visit
// at most every switch once and Valiant misrouting adds at most one more
// traversal, so exceeding twice the switch count (plus injection slack)
// means the routing function is cycling — a livelock that would
// otherwise only show up as a simulation that never terminates.
func (n *Network) debugCheckHop(e *sim.Engine, sw int, pkt *Packet) {
	limit := 2*len(n.swShard) + 2
	sim.Assertf(int(pkt.Hops) <= limit,
		"fabric: packet #%d (%d->%d) reached %d hops at sw%d, limit %d — routing cycle?",
		pkt.ID, pkt.Src, pkt.Dst, pkt.Hops, sw, limit)
	sim.Assertf(pkt.Injected <= e.Now(),
		"fabric: packet #%d at sw%d before its injection time (%v > %v)",
		pkt.ID, sw, pkt.Injected, e.Now())
}

// debugCheckDeliver asserts packet conservation at the delivery point:
// on a one-shard network the fabric never delivers or drops more packets
// than were injected, no packet arrives before it was sent, and every
// packet arrives at its destination, whose host a handler finds through
// the packet (Host(pkt.Dst)).
func (n *Network) debugCheckDeliver(e *sim.Engine, node int, pkt *Packet) {
	sim.Assertf(node == pkt.Dst, "fabric: packet #%d for node %d delivered to node %d", pkt.ID, pkt.Dst, node)
	if len(n.engs) == 1 {
		// Conservation only holds globally; per-shard counters see
		// deliveries before the matching injection counter is visible.
		st := &n.statsSh[0]
		sim.Assertf(st.PacketsDelivered+st.PacketsDropped <= st.PacketsInjected,
			"fabric: delivered %d + dropped %d exceeds injected %d",
			st.PacketsDelivered, st.PacketsDropped, st.PacketsInjected)
	}
	sim.Assertf(e.Now() >= pkt.Injected,
		"fabric: packet #%d delivered at %v before injection at %v",
		pkt.ID, e.Now(), pkt.Injected)
}

// debugCheckSchedule asserts pkt may take a new stage: it has none
// pending, and it is not on a free list, which is what a handler that
// kept a packet past its return and scheduled it later would produce.
func (n *Network) debugCheckSchedule(pkt *Packet) {
	sim.Assertf(pkt.stage != stageFree,
		"fabric: freed packet scheduled again; a handler kept a *Packet after it returned")
	sim.Assertf(pkt.stage == stageIdle,
		"fabric: packet #%d (%d->%d) scheduled while its stage-%d event is pending", pkt.ID, pkt.Src, pkt.Dst, pkt.stage)
}
