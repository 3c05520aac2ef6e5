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
// It also checks that the summary and occupancy words select that bucket:
// the first one, in index order, that holds events.
func (q *eventQueue) debugMin() *event {
	var best *event
	for _, ev := range q.b0 {
		if best == nil || eventLess(ev, best) {
			best = ev
		}
	}
	first := -1
	for k := range q.buckets {
		if q.buckets[k].head != nil && q.fill[k] > 0 {
			first = k
			break
		}
	}
	for w, word := range q.occ {
		Assertf((word != 0) == (q.sum&(1<<w) != 0),
			"radix heap: summary bit %d is %v, occupancy word %d is %#x", w, q.sum&(1<<w) != 0, w, word)
	}
	Assertf(q.sum>>occWords == 0, "radix heap: summary %#x marks words past %d", q.sum, occWords)
	if q.sum == 0 {
		Assertf(first < 0, "radix heap: no occupancy bit set, bucket %d holds events", first)
	} else {
		Assertf(int(q.lowest()) == first,
			"radix heap: occupancy selects bucket %d (level %d, digit %d), the first bucket with events is %d",
			q.lowest(), q.lowest()/digits, q.lowest()%digits, first)
	}
	if best != nil || first < 0 {
		return best
	}
	for _, ev := range q.debugBucket(first) {
		if best == nil || eventLess(ev, best) {
			best = ev
		}
	}
	return best
}

// debugBucket returns the events of bucket k: every slot of its older
// chunks and the first fill[k] of its newest, none if it has no chunk.
func (q *eventQueue) debugBucket(k int) []*event {
	var evs []*event
	n := q.fill[k]
	for c := q.buckets[k].head; c != nil; c = c.next {
		evs = append(evs, c.ev[:n]...)
		n = chunkCap
	}
	return evs
}

// debugVerifyHeap sweeps the whole radix heap: every event sits in the
// bucket its time selects (the level of its highest bit that differs from
// the last pop, and its digit there), b0 is heap-ordered, the occupancy
// and summary words, fill counts, the count and each bucket's recorded
// earliest time agree with the buckets, an empty bucket keeps at most one
// chunk, and queue and event free list never share an object.
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
	for k := range q.buckets {
		c, fill := q.buckets[k].head, q.fill[k]
		bit := q.occ[k/64]&(1<<(k%64)) != 0
		Assertf(bit == (c != nil && fill > 0),
			"radix heap: occupancy bit of bucket %d (level %d, digit %d) is %v, bucket holds events: %v",
			k, k/digits, k%digits, bit, c != nil && fill > 0)
		// A bucket with no chunk has fill chunkCap; an empty one keeps
		// its newest chunk alone, with fill 0.
		Assertf(fill <= chunkCap && (c != nil || fill == chunkCap) && (fill > 0 || c.next == nil),
			"radix heap: bucket %d has fill %d, holds chunks: %v", k, fill, c != nil)
		least := MaxTime
		for _, ev := range q.debugBucket(k) {
			least = min(least, ev.at)
			Assertf(ev.state == evQueued,
				"queued event in bucket %d has pool state %d (freed object still in queue)", k, ev.state)
			// Bucket k is level l, digit d: the highest bit where at
			// differs from the last pop lies in digit l, and at's digit l
			// is d. This restates bucketOf rather than calling it.
			l, d := k/digits, k%digits
			x := uint64(ev.at ^ q.last)
			Assertf(ev.at > q.last && x>>(l*digitBits) != 0 && x>>((l+1)*digitBits) == 0,
				"radix heap: event at %v in bucket %d (level %d), last pop at %v: they first differ in another digit",
				ev.at, k, l, q.last)
			Assertf(int(ev.at>>(l*digitBits))&digitMask == d,
				"radix heap: event at %v in bucket %d (level %d, digit %d) has digit %d there",
				ev.at, k, l, d, int(ev.at>>(l*digitBits))&digitMask)
			n++
		}
		Assertf(q.buckets[k].min == least,
			"radix heap: bucket %d records earliest time %v, holds earliest %v", k, q.buckets[k].min, least)
	}
	Assertf(n == q.n, "radix heap: count %d, buckets hold %d events", q.n, n)
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
