package sim

import (
	"fmt"
	"math/bits"
)

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
//  2. Queue order: the popped event was the true minimum, so no queued
//     event sorts before it under (time, priority, seq) order, and the
//     queue's last pop time is the popped event's time.
//  3. Pool lifecycle: the popped event is live (not a recycled object the
//     queue somehow still references).
func (e *Engine) debugCheckPop(ev *event) {
	Assertf(ev.at >= e.now,
		"event time %v precedes engine clock %v (causality runs backward)", ev.at, e.now)
	Assertf(ev.state == evQueued,
		"popped event (t=%v seq=%d) is not live: pool state %d (use-after-free)", ev.at, ev.seq, ev.state)
	Assertf(e.queue.last == ev.at,
		"radix heap: last pop time %v is not the popped event's time %v", e.queue.last, ev.at)
	if head := e.queue.debugMin(); head != nil {
		Assertf(!eventLess(head, ev),
			"heap order: queued event (t=%v pri=%d seq=%d) sorts before popped event (t=%v pri=%d seq=%d)",
			head.at, head.priority, head.seq, ev.at, ev.priority, ev.seq)
	}
	if e.executed%debugHeapCheckEvery == 0 {
		e.debugVerifyHeap()
	}
}

// debugMin returns the minimum queued event under eventLess, or nil if the
// queue is empty, by scanning all of b0 and then the lowest non-empty
// bucket: the buckets are ordered by time, which debugVerifyHeap checks.
func (q *eventQueue) debugMin() *event {
	var best *event
	for _, ev := range q.b0 {
		if best == nil || eventLess(ev, best) {
			best = ev
		}
	}
	if best != nil || q.mask == 0 {
		return best
	}
	for c := q.buckets[bits.TrailingZeros64(q.mask)]; c != nil; c = c.next {
		for _, ev := range c.ev[:c.n] {
			if best == nil || eventLess(ev, best) {
				best = ev
			}
		}
	}
	return best
}

// debugVerifyHeap sweeps the whole radix heap: every event sits in the
// bucket its time selects, b0 is heap-ordered, the occupancy mask, the
// count and each bucket's recorded earliest time agree with the buckets,
// free chunks are empty, and queue and event free list never share an
// object.
func (e *Engine) debugVerifyHeap() {
	q := &e.queue
	n := 0
	for i, ev := range q.b0 {
		Assertf(ev.state == evQueued,
			"queued event %d of bucket 0 has pool state %d (freed object still in queue)", i, ev.state)
		Assertf(ev.at == q.last,
			"radix heap: bucket 0 event at %v, last pop at %v", ev.at, q.last)
		if p := (i - 1) / 2; i > 0 {
			Assertf(!tieLess(ev, q.b0[p]),
				"heap property violated in bucket 0 at parent %d / child %d", p, i)
		}
		n++
	}
	for k, c := range q.buckets {
		occupied := c != nil && c.n > 0
		Assertf(occupied == (q.mask&(1<<k) != 0),
			"radix heap: occupancy bit %d is %v, bucket holds events: %v", k, q.mask&(1<<k) != 0, occupied)
		Assertf(k > 0 || c == nil, "radix heap: bucket 0 holds chunks")
		Assertf(occupied || c == nil || c.next == nil,
			"radix heap: empty bucket %d holds more than its kept chunk", k)
		least := MaxTime
		for ; occupied && c != nil; c = c.next {
			Assertf(c.n > 0, "radix heap: empty chunk in occupied bucket %d", k)
			for _, ev := range c.ev[:c.n] {
				least = min(least, ev.at)
				Assertf(ev.state == evQueued,
					"queued event in bucket %d has pool state %d (freed object still in queue)", k, ev.state)
				Assertf(bits.Len64(uint64(ev.at^q.last)) == k,
					"radix heap: event at %v in bucket %d, last pop at %v selects bucket %d",
					ev.at, k, q.last, bits.Len64(uint64(ev.at^q.last)))
				n++
			}
		}
		Assertf(q.mins[k] == least,
			"radix heap: bucket %d records earliest time %v, holds earliest %v", k, q.mins[k], least)
	}
	Assertf(n == q.n, "radix heap: count %d, buckets hold %d events", q.n, n)
	for c := q.free; c != nil; c = c.next {
		Assertf(c.n == 0, "radix heap: free chunk holds %d events", c.n)
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
