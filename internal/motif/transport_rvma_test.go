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

// rvmaExchange sends messages size-byte messages between ranks 0 and 1
// through the RVMA transport, whose mailboxes keep depth buffers posted,
// and returns the heap allocations the run made and the NACKs it drew. As
// a ping-pong every put finds a posted buffer; as a burst rank 0 puts them
// all at once, so into a depth-1 mailbox most draw a NACK and are put
// again after a backoff. With rec set, every put runs under the recovery
// layer's policy rec, on a fabric that drops the share drop of packets.
func rvmaExchange(t *testing.T, routing fabric.RoutingMode, depth int, burst bool, rec *recovery.Config, drop float64, size, messages int) (allocs, nacks uint64) {
	t.Helper()
	cfg := DefaultClusterConfig(smallTopo(t, 32), KindRVMA)
	cfg.Routing = routing
	cfg.RVMADepth = depth
	cfg.Recovery = rec
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
	return ms.Mallocs - before, c.NACKTotal()
}

// exchange runs messages size-byte operations on each of ranks 0 and 1,
// each rank a step record, and reports whether both finished. Rank 0
// sends at every even operation and receives at every odd one, rank 1
// the other way round, so every message is answered; in a burst, rank 0
// only sends and rank 1 only receives.
func exchange(c *Cluster, size, messages int, burst bool) bool {
	rs := [2]exchanger{{send: func(i int) bool { return burst || i%2 == 0 }},
		{send: func(i int) bool { return !burst && i%2 == 1 }}}
	for me := range rs {
		r := &rs[me]
		r.tp, r.peer, r.size, r.messages = c.Transports[me], []int{1 - me}, size, messages
		r.wake = r.step
		c.TagFor(me).Schedule(0, r.wake)
	}
	c.Run()
	return rs[0].done && rs[1].done
}

// exchanger is one side of exchange.
type exchanger struct {
	tp       Transport
	peer     []int
	size     int
	messages int
	send     func(i int) bool // whether operation i is a send
	wake     func()           // r.step
	prepared bool
	next     int
	done     bool
}

func (r *exchanger) step() {
	if !r.prepared {
		r.prepared = true
		if !r.tp.Prepare(r.peer, r.peer, r.size, r.wake) {
			return
		}
	}
	for r.next < r.messages {
		r.next++
		if r.send(r.next - 1) {
			r.tp.Send(r.peer[0], r.size)
		} else if !r.tp.Recv(r.peer[0], r.size, r.wake) {
			return
		}
	}
	r.done = true
}

// One ping-pong message through the RVMA transport allocates nothing:
// the PutOp goes back to the endpoint's free list once its local
// completion and its packets are spent, the post, the NIC send's local
// completion, the completion-pointer write and the NACK retry run on
// handlers set once per endpoint or transport, the reposted buffer
// reuses the released one, its completion cell's first write takes the
// page the released cell's Free left on the node's spare list, and a
// Recv that must wait queues the receiver's bound step on the mailbox,
// whose ring keeps its capacity.
// Adaptive and static routing cost the same, and a 4-packet message what
// a 1-packet one does.
//
// A burst into a depth-4 mailbox draws no NACK, but its messages are all
// in flight at once, so the endpoint's free list and stage queues and the
// engine's event pool grow by what each one has pending, a chunk or a
// doubling at a time: about 0.1 allocations per 1-packet message and 0.2
// per 4-packet one, whose packets wait in the send pipe; the packets
// come from the fabric in chunks and are their own events, so they bind
// nothing. Into a depth-1 mailbox about one put per message is
// NACKed, and a NACK adds two allocations to that: its command at the
// target and the sender's backoff closure; the retried put reuses a
// spent PutOp.
//
// Under the recovery layer a ping-pong message allocates nothing,
// whatever its length: the transport's send record, which embeds the
// put's handle and the manager's operation record, comes from a list
// its shard refills from a slab, each attempt is carved from the
// endpoint shard's slab, the endpoint reports the put's local completion,
// ack and NACKs to one handler per transport, the deadline, retry and the
// receiver's window guard wait in stages shared by the shard's managers,
// the ack's payload is the attempt, and reassembly keeps a packet bitmap
// by value. A guard's deadline is the sender's whole retry horizon (about
// 4 ms) away, so the engine's event pool grows through a run's first
// 4 ms of simulated time; the reliable rows compare 4,000 and 8,000
// messages, which both run past it. A reliable burst at 5% drop, every
// message in flight at once, may cost at most 0.3 allocations per message
// more than the plain burst: the records in flight grow their lists and
// stages as the plain burst's do, a chunk or a doubling at a time, and a
// dropped packet's retransmit is an attempt carved from a chunk. Its
// timeout is past the time the burst takes to leave the NIC, so only a
// message that lost a packet is sent again: under the default timeout
// most of the burst times out still queued behind the rest, and the
// spurious copies exhaust some messages' retry budgets (54 of 8,000
// 1-packet messages, 870 of 4,000 4-packet ones), so not every
// operation is acked.
//
// The run-length difference cancels set-up, rank records and pool
// warm-up that does not scale with the run, so what is left is the
// marginal cost of a message. The count is rounded to one decimal: a pool
// reaching a new peak, or the runtime's own bookkeeping, adds a handful of
// allocations per run, not per message, and can make the longer run's
// count the smaller one.
func TestRVMAMessageAllocations(t *testing.T) {
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	mtu := fabric.DefaultConfig().MTU
	measured := map[string]map[int]float64{} // by row, then packets per message
	reliable, patient := recovery.DefaultConfig(), recovery.DefaultConfig()
	patient.Timeout = 50 * sim.Millisecond
	for _, tc := range []struct {
		name     string
		routing  fabric.RoutingMode
		depth    int
		burst    bool
		rec      *recovery.Config
		drop     float64         // the share of packets the fabric drops
		messages int             // the short run's; the long run sends twice as many
		want     map[int]float64 // allocations per message, by packets per message
		over     string          // if set, want is this row's measured count plus 0.3
	}{
		{"adaptive ping-pong", fabric.RouteAdaptive, 4, false, nil, 0, 1000, map[int]float64{1: 0, 4: 0}, ""},
		{"static ping-pong", fabric.RouteStatic, 4, false, nil, 0, 1000, map[int]float64{1: 0, 4: 0}, ""},
		{"burst", fabric.RouteAdaptive, 4, true, nil, 0, 1000, map[int]float64{1: 0.1, 4: 0.2}, ""},
		{"NACKing burst", fabric.RouteAdaptive, 1, true, nil, 0, 1000, map[int]float64{1: 2.1, 4: 2.2}, ""},
		{"reliable ping-pong", fabric.RouteAdaptive, 4, false, &reliable, 0, 4000, map[int]float64{1: 0, 4: 0}, ""},
		{"reliable burst", fabric.RouteAdaptive, 4, true, &patient, 0.05, 4000, nil, "burst"},
	} {
		messages := float64(tc.messages)
		perPackets := map[int]float64{}
		measured[tc.name] = perPackets
		for _, packets := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d packets", tc.name, packets), func(t *testing.T) {
				size := packets * mtu
				short, shortNacks := rvmaExchange(t, tc.routing, tc.depth, tc.burst, tc.rec, tc.drop, size, tc.messages)
				long, longNacks := rvmaExchange(t, tc.routing, tc.depth, tc.burst, tc.rec, tc.drop, size, 2*tc.messages)
				if nacked := longNacks > 0; tc.drop == 0 && nacked != (tc.depth == 1) {
					t.Fatalf("%d NACKs in %d messages", longNacks, 2*tc.messages)
				}
				perMsg := math.Round((float64(long)-float64(short))/messages*10) / 10
				perPackets[packets] = perMsg
				want := tc.want[packets]
				if tc.over != "" {
					want = measured[tc.over][packets] + 0.3
				}
				if perMsg > want+1e-9 {
					t.Errorf("%.1f allocations per message, want at most %.1f", perMsg, want)
				}
				t.Logf("%.1f allocations and %.2f NACKs per message", perMsg,
					float64(longNacks-shortNacks)/messages)
			})
		}
		if !tc.burst && perPackets[4] != perPackets[1] {
			t.Errorf("%s: a 4-packet message costs %.1f allocations, a 1-packet one %.1f",
				tc.name, perPackets[4], perPackets[1])
		}
	}
}
