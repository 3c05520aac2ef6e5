package motif

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/recovery"
	"rvma/internal/sim"
)

// rdmaExchange sends messages size-byte messages between ranks 0 and 1
// through the RDMA transport and returns the heap allocations the run
// made. As a ping-pong every send finds its credit back; as a burst rank
// 0 sends them all at once, so all but the first wait for a credit. With
// reliable, every put, fence and credit runs under the recovery layer's
// default policy, on a fabric that drops the share drop of packets.
func rdmaExchange(t *testing.T, routing fabric.RoutingMode, lastByte, burst, reliable bool, drop float64, size, messages int) uint64 {
	t.Helper()
	cfg := DefaultClusterConfig(smallTopo(t, 32), KindRDMA)
	cfg.Routing = routing
	cfg.RDMALastBytePoll = lastByte
	if reliable {
		rc := recovery.DefaultConfig()
		cfg.Recovery = &rc
	}
	if drop > 0 {
		cfg.Faults = &fabric.FaultPlan{DropRate: drop}
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	if !exchange(c, size, messages, burst) {
		t.Fatalf("%d messages: the exchange deadlocked", messages)
	}
	runtime.ReadMemStats(&ms)
	if st := c.RecoveryStats(); drop > 0 && (st.Retransmits == 0 || st.OpsCompleted != st.OpsStarted) {
		t.Fatalf("%d messages at %v drop: recovery stats %+v, want retransmits and every operation acked", messages, drop, st)
	}
	return ms.Mallocs - before
}

// One message through the RDMA transport allocates nothing. Its PutOp,
// whose commands and continuations also carry the fence send under
// adaptive routing, and the receiver's credit-return SendOp go back to
// their endpoints' free lists once their local completions, packets and
// (for a conservative fence) transport ACK are spent; Send hands out no
// future, and a message that waits for a credit queues only its size.
// The receive handles are reused: a Recv that must wait holds the fence
// RecvOp (or, under static routing with last-byte polling, the byte
// wait) in a pooled receive wait, whose bound callback, held inline by
// the receive's future, returns the credit, hands the handle back to the
// endpoint and the wait back to the pool, and then continues the
// receiver; the sender's RecvOp posted for the credit reports to the
// send state and goes back to the endpoint when the credit arrives. Under
// the recovery layer a message allocates nothing either: the send
// records of its put, its fence send and its credit send each embed the
// operation's handle and the manager's record and come from a list the
// shard refills from a slab, their attempts are carved from the endpoint
// shard's slab, the endpoint reports each operation's local completion
// and ack to one handler per transport, and the deadlines and retries
// wait in stages the shard's managers share. A credit-bound reliable
// burst at 5% drop may cost at most 0.3 allocations per message more
// than the plain one: a dropped packet's retransmit is an attempt carved
// from a chunk.
// The run-length difference cancels set-up, handshakes, rank records
// and pool warm-up, so what is left is the marginal cost of a message,
// and a 4-packet message must cost what a 1-packet one does. The count is
// rounded to one decimal: a pool reaching a new peak, or the runtime's
// own bookkeeping, adds a handful of allocations per run, not per
// message, and can make the longer run's count the smaller one.
func TestRDMAMessageAllocations(t *testing.T) {
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	const messages = 1000
	mtu := fabric.DefaultConfig().MTU
	measured := map[string]map[int]float64{} // by row, then packets per message
	for _, tc := range []struct {
		name     string
		routing  fabric.RoutingMode
		lastByte bool
		burst    bool
		reliable bool
		drop     float64 // the share of packets the fabric drops
		want     float64
		over     string // if set, want is this row's measured count plus 0.3
	}{
		{"adaptive fence", fabric.RouteAdaptive, false, false, false, 0, 0, ""},
		{"static WaitBytes", fabric.RouteStatic, true, false, false, 0, 0, ""},
		{"adaptive fence, credit-bound burst", fabric.RouteAdaptive, false, true, false, 0, 0, ""},
		{"reliable ping-pong", fabric.RouteAdaptive, false, false, true, 0, 0.1, ""},
		{"reliable burst", fabric.RouteAdaptive, false, true, true, 0.05, 0, "adaptive fence, credit-bound burst"},
	} {
		perPackets := map[int]float64{}
		measured[tc.name] = perPackets
		for _, packets := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d packets", tc.name, packets), func(t *testing.T) {
				size := packets * mtu
				short := rdmaExchange(t, tc.routing, tc.lastByte, tc.burst, tc.reliable, tc.drop, size, messages)
				long := rdmaExchange(t, tc.routing, tc.lastByte, tc.burst, tc.reliable, tc.drop, size, 2*messages)
				perMsg := math.Round((float64(long)-float64(short))/messages*10) / 10
				perPackets[packets] = perMsg
				want := tc.want
				if tc.over != "" {
					want = measured[tc.over][packets] + 0.3
				}
				if perMsg > want+1e-9 {
					t.Errorf("%.1f allocations per message, want at most %.1f", perMsg, want)
				}
				t.Logf("%.1f allocations per message", perMsg)
			})
		}
		if perPackets[4] != perPackets[1] {
			t.Errorf("%s: a 4-packet message costs %.1f allocations, a 1-packet one %.1f",
				tc.name, perPackets[4], perPackets[1])
		}
	}
}

// Two Prepares in flight at once each make only their own out-neighbors
// ready. Rank 0 prepares a near peer and a far one in separate calls and,
// as soon as the near call resolves, sends to the far peer, whose
// handshake is still pending: the message waits in the far peer's queue
// for its buffer and is delivered once the far call resolves. Had the
// first call to finish marked every peer ready, the send would have
// looked for a negotiated buffer the far peer does not have yet.
func TestConcurrentPreparesReadyOnlyTheirOwnPeers(t *testing.T) {
	const size = 4096
	c, err := NewCluster(DefaultClusterConfig(smallTopo(t, 32), KindRDMA))
	if err != nil {
		t.Fatal(err)
	}
	near, far := 1, len(c.Transports)-1
	tp, rx := c.Transports[0], c.Transports[far]
	firstDone, secondDone, secondPending, sent, delivered := false, false, false, false, false
	// The sender's steps, each the continuation of the one before.
	var afterFirst, afterSecond func()
	afterFirst = func() {
		firstDone = true
		secondPending = !secondDone
		tp.Send(far, size)
		if secondDone {
			afterSecond()
		}
	}
	afterSecond = func() {
		secondDone = true
		if !firstDone {
			return // afterFirst continues once the near call resolves
		}
		if tp.WaitSent(far, func() { sent = true }) {
			sent = true
		}
	}
	c.TagFor(0).Schedule(0, func() {
		if tp.Prepare(nil, []int{near}, size, afterFirst) || tp.Prepare(nil, []int{far}, size, afterSecond) {
			t.Error("a Prepare that starts a handshake reported itself done")
		}
	})
	c.TagFor(far).Schedule(0, func() {
		recv := func() {
			if rx.Recv(0, size, func() { delivered = true }) {
				delivered = true
			}
		}
		if rx.Prepare([]int{0}, nil, size, recv) {
			recv()
		}
	})
	c.Run()
	if !secondPending {
		t.Fatal("the far Prepare resolved first: the case under test did not occur")
	}
	if !delivered || !sent {
		t.Fatal("the message sent before its peer's Prepare resolved was never delivered")
	}
}
