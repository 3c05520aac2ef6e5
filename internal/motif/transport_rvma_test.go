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
// again after a backoff. With reliable, every put runs under the recovery
// layer's default policy on the lossless fabric.
func rvmaExchange(t *testing.T, routing fabric.RoutingMode, depth int, burst, reliable bool, size, messages int) (allocs, nacks uint64) {
	t.Helper()
	cfg := DefaultClusterConfig(smallTopo(t, 32), KindRVMA)
	cfg.Routing = routing
	cfg.RVMADepth = depth
	if reliable {
		rc := recovery.DefaultConfig()
		cfg.Recovery = &rc
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := c.Transports[0], c.Transports[1]
	done := 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	c.TagFor(0).Spawn("a", func(p *sim.Process) {
		p.Wait(a.Prepare([]int{1}, []int{1}, size))
		for i := 0; i < messages; i++ {
			switch {
			case burst, i%2 == 0:
				a.Send(1, size)
			default:
				a.Recv(p, 1, size)
			}
		}
		done++
	})
	c.TagFor(1).Spawn("b", func(p *sim.Process) {
		p.Wait(b.Prepare([]int{0}, []int{0}, size))
		for i := 0; i < messages; i++ {
			switch {
			case burst, i%2 == 0:
				b.Recv(p, 0, size)
			default:
				b.Send(0, size)
			}
		}
		done++
	})
	c.Run()
	runtime.ReadMemStats(&ms)
	if done != 2 {
		t.Fatalf("%d messages: the exchange deadlocked", messages)
	}
	return ms.Mallocs - before, c.NACKTotal()
}

// One ping-pong message through the RVMA transport allocates nothing:
// the PutOp goes back to the endpoint's free list once its local
// completion and its packets are spent, the post, the NIC send's local
// completion, the completion-pointer write and the NACK retry run on
// callbacks bound once per endpoint or transport, the reposted buffer
// reuses the released one, its completion cell's first write takes the
// page the released cell's Free left on the node's spare list, and Recv
// parks the receiver on a wait the transport reuses once it resumes.
// Adaptive and static routing cost the same, and a 4-packet message what
// a 1-packet one does.
//
// A burst into a depth-4 mailbox draws no NACK, but its messages are all
// in flight at once, so the endpoint's free list and stage queues and the
// engine's event pool grow by what each one has pending: about two
// allocations per 1-packet message, and about five per 4-packet one,
// whose packets wait in the send pipe; the packets themselves come from
// the fabric in chunks. Into a depth-1 mailbox about one put per message is
// NACKed, and a NACK adds two allocations to that: its command at the
// target and the sender's backoff closure; the retried put reuses a
// spent PutOp.
//
// Under the recovery layer a message allocates its ReliablePut and
// PutAttempt and nothing else, whatever its length: the manager's
// operation record and the transport's send record come from free lists,
// the timeout and the receiver's window guard wait in stages, the ack's
// payload is the ReliablePut, and reassembly keeps a packet bitmap by
// value. A guard's deadline is the sender's whole retry horizon (about
// 4 ms) away, so the engine's event pool grows through a run's first
// 4 ms of simulated time; that row compares 4,000 and 8,000 messages,
// which both run past it.
//
// The run-length difference cancels set-up, process spawns and pool
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
	for _, tc := range []struct {
		name     string
		routing  fabric.RoutingMode
		depth    int
		burst    bool
		reliable bool
		messages int             // the short run's; the long run sends twice as many
		want     map[int]float64 // allocations per message, by packets per message
	}{
		{"adaptive ping-pong", fabric.RouteAdaptive, 4, false, false, 1000, map[int]float64{1: 0, 4: 0}},
		{"static ping-pong", fabric.RouteStatic, 4, false, false, 1000, map[int]float64{1: 0, 4: 0}},
		{"burst", fabric.RouteAdaptive, 4, true, false, 1000, map[int]float64{1: 2.1, 4: 5.2}},
		{"NACKing burst", fabric.RouteAdaptive, 1, true, false, 1000, map[int]float64{1: 4.1, 4: 7.2}},
		{"reliable ping-pong", fabric.RouteAdaptive, 4, false, true, 4000, map[int]float64{1: 2, 4: 2}},
	} {
		messages := float64(tc.messages)
		perPackets := map[int]float64{}
		for _, packets := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d packets", tc.name, packets), func(t *testing.T) {
				size := packets * mtu
				short, shortNacks := rvmaExchange(t, tc.routing, tc.depth, tc.burst, tc.reliable, size, tc.messages)
				long, longNacks := rvmaExchange(t, tc.routing, tc.depth, tc.burst, tc.reliable, size, 2*tc.messages)
				if nacked := longNacks > 0; nacked != (tc.depth == 1) {
					t.Fatalf("%d NACKs in %d messages", longNacks, 2*tc.messages)
				}
				perMsg := math.Round((float64(long)-float64(short))/messages*10) / 10
				perPackets[packets] = perMsg
				if want := tc.want[packets]; perMsg > want {
					t.Errorf("%.1f allocations per message, want at most %v", perMsg, want)
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
