package sim

import "fmt"

// This file holds the simdebug invariant helpers. The functions exist in
// every build; callers guard them with `if DebugEnabled { ... }` so the
// checks (and their argument evaluation) vanish from normal builds.

// invariantHook, when set, observes the message of a failing Assertf
// before the panic unwinds. The telemetry flight recorder installs one so
// an invariant violation dumps the last-N-events history alongside the
// panic instead of dying bare.
var invariantHook func(msg string)

// SetInvariantHook installs fn to be called with the formatted message of
// every failing Assertf, before the panic. Pass nil to clear. The engine
// is single-threaded, so installing a hook from model setup code is safe;
// the hook must not schedule events or touch model state.
func SetInvariantHook(fn func(msg string)) { invariantHook = fn }

// Assertf panics with a simdebug-prefixed message when cond is false.
// Model packages use it for their own invariants (conservation laws,
// non-negative resources) so every violation reports uniformly.
func Assertf(cond bool, format string, args ...any) {
	if !cond {
		msg := fmt.Sprintf(format, args...)
		if invariantHook != nil {
			invariantHook(msg)
		}
		panic("simdebug: invariant violated: " + msg)
	}
}

// debugHeapCheckEvery bounds the cost of full heap verification: the
// cheap per-pop checks run on every event, the O(n) structural sweep
// only once per this many executed events.
const debugHeapCheckEvery = 1 << 10

// debugCheckPop validates the event-ordering and pool invariants the
// whole simulation rests on, at the moment an event is popped for
// execution:
//
//  1. Monotonic clock: the popped event's timestamp is never earlier
//     than the current simulated time.
//  2. Heap order: the new head (the next event to run) does not sort
//     before the event just popped under (time, priority, seq) order.
//  3. Pool lifecycle: the popped event is live (not a recycled object the
//     queue somehow still references).
func (e *Engine) debugCheckPop(ev *event) {
	Assertf(ev.at >= e.now,
		"event time %v precedes engine clock %v (causality runs backward)", ev.at, e.now)
	Assertf(ev.state == evQueued,
		"popped event (t=%v seq=%d) is not live: pool state %d (use-after-free)", ev.at, ev.seq, ev.state)
	if len(e.queue) > 0 {
		head := e.queue[0]
		Assertf(!eventLess(head, ev),
			"heap order: next event (t=%v pri=%d seq=%d) sorts before popped event (t=%v pri=%d seq=%d)",
			head.at, head.priority, head.seq, ev.at, ev.priority, ev.seq)
	}
	if e.executed%debugHeapCheckEvery == 0 {
		e.debugVerifyHeap()
	}
}

// debugVerifyHeap sweeps the whole queue checking the heapArity-ary heap
// property under the event ordering, and that queue and free list never
// share an object.
func (e *Engine) debugVerifyHeap() {
	for i := range e.queue {
		Assertf(e.queue[i].state == evQueued,
			"queued event at %d has pool state %d (freed object still in queue)", i, e.queue[i].state)
		for c := heapArity*i + 1; c <= heapArity*i+heapArity && c < len(e.queue); c++ {
			Assertf(!eventLess(e.queue[c], e.queue[i]),
				"heap property violated at parent %d / child %d", i, c)
		}
	}
	for i, ev := range e.free {
		Assertf(ev.state == evFree,
			"free list entry %d has pool state %d (live event in the pool)", i, ev.state)
	}
}

// eventLess is the (time, priority, seq) order the queue keeps; the debug
// checks compare with exactly this ordering.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}
