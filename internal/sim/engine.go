package sim

import (
	"fmt"
	"math/bits"
)

// Handler is what an event runs: typically a component's own record,
// whose Fire is the event's callback. Scheduling a pointer to a record
// stores the pointer and allocates nothing, where a closure or a method
// value would be made per record; a plain func() schedules as a Func.
type Handler interface{ Fire() }

// Func adapts a func() to Handler. A func value is one pointer, so the
// conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is a scheduled handler. Events are ordered by time, then priority
// (lower runs first), then by the sequence number assigned at scheduling
// time, which makes execution order fully deterministic. The engine pools
// events and recycles one as soon as it has executed; no reference to an
// event ever leaves the package.
type event struct {
	at       Time
	priority int
	seq      uint64
	h        Handler
	label    Label // component identity stamped by Tagged handles; 0 = unlabeled
	daemon   bool
	state    uint8 // pool lifecycle: evFree / evQueued (simdebug checks)
}

// Event pool lifecycle states. The zero value is evFree so a freshly
// allocated event is indistinguishable from a pooled one until the engine
// hands it out.
const (
	evFree   uint8 = iota // in the engine free list (or never allocated)
	evQueued              // live: scheduled and present in the queue
)

// eventQueue is a monotone radix heap over (time, priority, seq) whose
// buckets are digits of digitBits bits (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990, §4; the hierarchical timing wheel of Varghese & Lauck, SOSP
// 1987, is the same idea). It relies on pops never going back in time:
// every queued event is at or after last, the time of the last pop.
//
//   - Bucket 0 (b0) holds the events at exactly last, as a small binary
//     heap on (priority, seq).
//   - Every other event, at time at, sits on level l, the digit where at
//     first differs from last (the highest set bit of at^last, divided by
//     digitBits), in the bucket of at's value d in that digit:
//     l*digits + d (bucketOf). Events on level l share every higher digit
//     with last, and their digit l exceeds last's, so every event in a
//     bucket is earlier than every event in a higher one, and the lowest
//     set bit of the occupancy words holds the earliest time. A bucket is
//     an unordered list of fixed-size chunks.
//
// A pop with b0 empty refiles the lowest non-empty bucket: its earliest
// time becomes last, and each of its events, which shares every digit
// from l up with that time, moves to a strictly lower level or into b0. So
// an event moves at most once per level over its life, and in practice two
// or three times. Those moves are independent of one another, where a
// comparison heap's pop is a chain of dependent, mispredicted compares
// through cold events: on a queue thousands deep, the chain is what a pop
// costs. Wider digits mean fewer levels and fewer moves but more buckets
// to spread a shallow queue over; see digitBits.
//
// Each bucket keeps its earliest time, so a refile knows where to move
// last without a scan, and a peek reads the head without one. A peek must
// not advance last, because a shard's barrier deliveries land between its
// clock and its head. Only Engine.syncClock moves a clock behind last, and
// it rebases the queue when it does.
type eventQueue struct {
	last    Time             // time of the last pop; no queued event is earlier
	n       int              // queued events
	sum     uint64           // bit w set iff occ[w] != 0
	occ     [occWords]uint64 // bit k%64 of word k/64 set iff buckets[k] holds an event
	b0      []*event         // bucket 0: events at exactly last, a heap on (priority, seq)
	buckets [numBuckets]bucket
	fill    [numBuckets]uint8 // events in buckets[k]'s newest chunk; chunkCap while it has none, so either way a file takes a chunk
	free    *chunk            // spare chunks shared by every bucket
	slab    []chunk           // the rest of the block spare carves chunks from
}

const (
	// digitBits is the width of one radix digit. Replaying the queue
	// operations of the benchmark's fig7-sweep3d and fig8-halo3d RVMA
	// cells, 4-bit digits make 2.5 and 2.9 refile moves per pop, where
	// 1-bit digits made 4.7 and 5.2; 3-, 5-, 6- and 8-bit digits make
	// 3.0, 2.05, 2.0 and 1.44 on fig7. 4 bits ran both traces fastest;
	// 8 bits tied on fig7, ran fig8 slower and needs 2,048 buckets, each
	// of which keeps a chunk once used.
	digitBits = 4
	digits    = 1 << digitBits
	digitMask = digits - 1
	// numBuckets is levels times digits: ceil(64/digitBits) levels cover
	// every bit of a time.
	numBuckets = (64 + digitBits - 1) / digitBits * digits
	occWords   = (numBuckets + 63) / 64
)

// bucketOf returns the bucket of an event at time at, given the last pop
// time last; at must differ from last. Taking the index modulo
// numBuckets, a power of two, costs one AND and lets the compiler drop
// the bounds checks where file indexes with it.
func bucketOf(at, last Time) uint {
	l := uint(bits.Len64(uint64(at^last))-1) / digitBits
	return (l*digits + uint(uint64(at)>>(l*digitBits&63))&digitMask) % numBuckets
}

// bucket is one bucket's list of chunks and the earliest time in it.
type bucket struct {
	head *chunk // the newest chunk, linked to older full ones; an empty bucket keeps one or none
	min  Time   // MaxTime while empty
}

// chunkCap is the number of events one chunk holds: with its link, a
// chunk is 128 bytes. Every bucket a run has used holds a chunk, part
// filled or kept empty, and a queue a few thousand deep occupies a hundred
// buckets or more, so a small chunk keeps the queue's memory near its
// depth.
const chunkCap = 15

// chunkSlab is how many chunks spare carves from one allocation when the
// free list is empty, as Engine.at carves events. 31 chunks and the 8-byte
// header the Go allocator adds to a large object with pointers just fill
// its 4 KiB size class; 32 would spill into the 4,864-byte one.
const chunkSlab = 31

// chunk is one fixed-size block of a bucket's unordered event list. Fixed
// blocks from a shared free list keep the buckets' memory at the peak
// queue depth; a growable slice per bucket holds ~7x that. A bucket that
// empties keeps its newest chunk and gives the others back, so a queue
// that cycles through a few buckets never touches the free list (taking
// and returning a chunk each time a bucket filled and emptied made a
// replay of fig7's queue operations ~15% slower). Every chunk of a bucket
// but the newest is full; slots past the bucket's fill are stale: they may
// still point at pooled events, which pins nothing the engine's event
// pool does not already hold.
type chunk struct {
	next *chunk
	ev   [chunkCap]*event
}

// push inserts ev, which must not be earlier than the last pop.
func (q *eventQueue) push(ev *event) {
	at := ev.at
	if DebugEnabled {
		Assertf(at >= q.last, "radix heap: push at %v before the last pop at %v", at, q.last)
	}
	q.n++
	if at != q.last {
		k := bucketOf(at, q.last)
		q.spare()
		q.sum |= 1 << (k / 64)
		q.file(k, at, ev)
	} else {
		q.pushTie(ev)
	}
}

// pop removes and returns the minimum event. The caller must ensure the
// queue is non-empty.
func (q *eventQueue) pop() *event {
	q.n--
	if len(q.b0) > 0 {
		return q.popTie()
	}
	k := q.lowest()
	c := q.buckets[k].head
	if q.fill[k] == 1 && c.next == nil {
		// A lone event: refiling would move it straight into b0 and out.
		q.empty(k, c)
		ev := c.ev[0]
		q.last = ev.at
		return ev
	}
	q.refile(k)
	return q.popTie()
}

// peek returns the earliest queued time without advancing last. The
// caller must ensure the queue is non-empty.
func (q *eventQueue) peek() Time {
	if len(q.b0) > 0 {
		return q.last
	}
	return q.buckets[q.lowest()].min
}

// lowest returns the lowest non-empty bucket. The caller ensures one is.
func (q *eventQueue) lowest() uint {
	w := uint(bits.TrailingZeros64(q.sum))
	return (w*64 + uint(bits.TrailingZeros64(q.occ[w%occWords]))) % numBuckets
}

// file appends ev, at time at, to bucket k. It runs for every push and
// every refile move, and is kept small enough to inline there, so the
// caller does two of its chores: it ensures the free list holds a chunk
// for a bucket that needs one (spare), and it sets k's word in sum, once
// per refile rather than once per move.
func (q *eventQueue) file(k uint, at Time, ev *event) {
	b := &q.buckets[k]
	b.min = min(b.min, at)
	q.occ[k/64] |= 1 << (k % 64)
	i := q.fill[k]
	if i == chunkCap {
		c := q.free
		q.free = c.next
		c.next = b.head
		b.head = c
		i = 0
	}
	b.head.ev[i] = ev
	q.fill[k] = i + 1
}

// spare ensures the free list holds a chunk for the next file, carving a
// slab when it is empty.
func (q *eventQueue) spare() {
	if q.free != nil {
		return
	}
	if len(q.slab) == 0 {
		//rvmalint:allow hotalloc -- chunk pool miss, one slab per chunkSlab misses: a refiled bucket returns all but its newest chunk to the shared free list, so this runs O((peak depth / chunkCap + buckets) / chunkSlab) times, not per event
		q.slab = make([]chunk, chunkSlab)
	}
	q.free = &q.slab[0]
	q.slab = q.slab[1:]
}

// empty marks bucket k empty, keeping chunk keep, which must be its
// newest, for the next event filed there. The caller has taken its events
// and gives its older chunks back.
func (q *eventQueue) empty(k uint, keep *chunk) {
	w := k / 64 % occWords
	if q.occ[w] &^= 1 << (k % 64); q.occ[w] == 0 {
		q.sum &^= 1 << w
	}
	q.buckets[k%numBuckets] = bucket{head: keep, min: MaxTime}
	q.fill[k%numBuckets] = 0
}

// release gives chunk c, whose events the caller has taken, back to the
// free list.
func (q *eventQueue) release(c *chunk) {
	c.next = q.free
	q.free = c
}

// refile empties bucket k, the lowest non-empty one, into lower ones: its
// earliest time m becomes last, and its events at m go to b0. The bucket
// keeps its newest chunk. The caller ensures b0 is empty.
func (q *eventQueue) refile(k uint) {
	keep := q.buckets[k%numBuckets].head
	n := q.fill[k%numBuckets]
	m := q.buckets[k%numBuckets].min
	q.empty(k, keep)
	q.last = m
	for c := keep; c != nil; {
		for _, ev := range c.ev[:n] {
			if at := ev.at; at != m {
				q.spare()
				q.file(bucketOf(at, m), at, ev)
			} else {
				q.pushTie(ev)
			}
		}
		next := c.next
		if c != keep {
			q.release(c)
		}
		c, n = next, chunkCap
	}
	keep.next = nil
	for w, word := range q.occ {
		if word != 0 {
			q.sum |= 1 << w
		}
	}
}

// rebase lowers last to t, which the caller ensures is below last, and
// pushes every queued event again against it. Every queued event is at or
// after the old last, so none lands in b0.
func (q *eventQueue) rebase(t Time) {
	var old *chunk
	for k := range q.buckets {
		c := q.buckets[k].head
		if c == nil {
			continue
		}
		clear(c.ev[q.fill[k]:]) // stale slots, skipped below
		tail := c
		for tail.next != nil {
			tail = tail.next
		}
		tail.next = old
		old = c
	}
	q.sum = 0
	q.occ = [occWords]uint64{}
	q.clearBuckets()
	q.last = t
	q.n = 0
	for i, ev := range q.b0 {
		q.push(ev)
		q.b0[i] = nil
	}
	q.b0 = q.b0[:0]
	for old != nil {
		for _, ev := range old.ev {
			if ev != nil {
				q.push(ev)
			}
		}
		next := old.next
		q.release(old)
		old = next
	}
}

// clearBuckets marks every bucket empty and chunkless: MaxTime is an
// empty bucket's earliest time, so the first event filed there replaces
// it, and a fill of chunkCap makes that file take a chunk.
func (q *eventQueue) clearBuckets() {
	for k := range q.buckets {
		q.buckets[k] = bucket{min: MaxTime}
		q.fill[k] = chunkCap
	}
}

// pushTie inserts ev into b0, a binary min-heap on (priority, seq).
func (q *eventQueue) pushTie(ev *event) {
	//rvmalint:allow hotalloc -- b0 growth is amortized O(1); its backing array stabilizes at the most events ever tied at one time
	h := append(q.b0, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !tieLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	q.b0 = h
}

// popTie removes and returns b0's minimum. The caller ensures b0 is not
// empty.
func (q *eventQueue) popTie() *event {
	h := q.b0
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h[n] = nil
	h = h[:n]
	q.b0 = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && tieLess(h[c+1], h[c]) {
			c++
		}
		if !tieLess(h[c], x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
	return top
}

// tieLess orders two events at the same time: by priority, then seq.
func tieLess(a, b *event) bool {
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside its events, a waiting actor
// too: its step runs from an event or, as a continuation, from inside the
// completion it waits for. Concurrency lives one level up: independent
// engines — one per experiment cell — may run in parallel on separate
// goroutines because an engine shares no mutable state with any other.
type Engine struct {
	now      Time
	queue    eventQueue
	free     []*event    // recycled events; see at/release
	evSlab   Slab[event] // where at takes new events from on a free-list miss
	seq      uint64      // model scheduling counter; events carry 2*seq
	dseq     uint64      // daemon scheduling counter; daemons carry 2*dseq+1
	executed uint64
	daemons  int // queued daemon events
	rng      *RNG
	running  bool

	// execObs, when non-nil, is called once per executed model event (see
	// SetExecObserver). Disabled cost: one nil-check per pop.
	execObs ExecObserver

	// labels is the interned component-label table (index = Label); labelIDs
	// maps names back to ids. Both are nil until the first Tag call, so an
	// untagged engine pays nothing.
	labels   []string
	labelIDs map[string]Label

	// lastModelAt is the timestamp of the most recent model pop. The shard
	// group reads it once every shard's model has drained, to recover the
	// exact global final time (see ShardGroup.Run).
	lastModelAt Time
}

// NewEngine returns an engine at time zero with a deterministic RNG seeded
// by seed. Two engines built with the same seed and fed the same model run
// identically.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rng: NewRNG(seed)}
	e.queue.clearBuckets()
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random number generator. Model
// components must use this generator (never the global math/rand) so runs
// stay reproducible.
func (e *Engine) RNG() *RNG { return e.rng }

// EventsExecuted returns the number of model events the engine has run
// (daemon events are not counted).
func (e *Engine) EventsExecuted() uint64 { return e.executed }

// at queues h at absolute time t, reusing a recycled event when the free
// list has stock. Every field is (re)initialized here, so a pooled object
// carries nothing over from its previous life. It is the one queueing
// path behind every Schedule/At variant and the shard group's handoffs;
// callers check t against the clock.
//
//rvmalint:hot
func (e *Engine) at(t Time, priority int, label Label, h Handler, daemon bool) {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		// A miss: the free list feeds steady state, so the slab carves
		// O(peak concurrency / SlabChunk) chunks, not one per event.
		ev = e.evSlab.New()
	}
	ev.at = t
	ev.priority = priority
	// Model and daemon events draw from disjoint seq spaces (even/odd), so
	// attaching instrumentation daemons never shifts a model event's
	// identity — the execution ledger hashes these seqs, and its chain
	// must be invariant under telemetry on/off.
	if daemon {
		ev.seq = 2*e.dseq + 1
		e.dseq++
		e.daemons++
	} else {
		ev.seq = 2 * e.seq
		e.seq++
	}
	ev.h = h
	ev.label = label
	ev.daemon = daemon
	ev.state = evQueued
	e.queue.push(ev)
}

// release returns an executed event to the free list. The handler is
// dropped immediately so the pool never pins its record.
func (e *Engine) release(ev *event) {
	ev.h = nil
	ev.state = evFree
	//rvmalint:allow hotalloc -- free-list growth is amortized; capacity stabilizes at peak event population
	e.free = append(e.free, ev)
}

// Schedule runs fn after delay d. A negative delay panics: causality in a
// discrete-event simulation only moves forward.
//
//rvmalint:hot
func (e *Engine) Schedule(d Time, fn func()) {
	e.schedule(d, 0, NoLabel, Func(fn), false)
}

// ScheduleP runs fn after delay d with an explicit priority; among events
// at the same timestamp, lower priorities run first. Priorities let models
// enforce intra-timestep ordering (e.g. "deliver before poll").
//
//rvmalint:hot
func (e *Engine) ScheduleP(d Time, priority int, fn func()) {
	e.schedule(d, priority, NoLabel, Func(fn), false)
}

// schedule is the relative-delay entry point behind every Schedule*
// variant, the Tagged ones included.
//
//rvmalint:hot
func (e *Engine) schedule(d Time, priority int, label Label, h Handler, daemon bool) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.at(e.now+d, priority, label, h, daemon)
}

// At runs fn at absolute time t, which must not be in the past.
//
//rvmalint:hot
func (e *Engine) At(t Time, fn func()) {
	e.atModel(t, 0, NoLabel, Func(fn))
}

// atModel is the absolute-time entry point behind At and the Tagged At
// variants: a time in the past panics.
//
//rvmalint:hot
func (e *Engine) atModel(t Time, priority int, label Label, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.at(t, priority, label, h, false)
}

// ScheduleDaemonP runs fn after delay d at the given priority as a daemon
// event. Daemons are instrumentation riders (the telemetry sampler's
// ticks): they never keep a run alive — when only daemon events remain
// queued, Run returns at the time of the last model event without
// executing them — and they are invisible to the model-facing counters
// (EventsExecuted, Pending), so a run's externally observable results are
// byte-identical with or without daemons attached.
// Daemon callbacks must be pure readers of the model: no model-event
// scheduling, no RNG draws, no state mutation.
//
//rvmalint:hot
func (e *Engine) ScheduleDaemonP(d Time, priority int, fn func()) {
	e.schedule(d, priority, NoLabel, Func(fn), true)
}

// Run executes events until only daemon events remain queued. It returns
// the final simulated time.
func (e *Engine) Run() Time { return e.RunUntil(MaxTime) }

// RunUntil executes events with timestamps <= limit. The clock is left at
// min(limit, time of last executed event's successor). A limit before the
// current time panics: the clock, like causality, only moves forward.
//
//rvmalint:hot
func (e *Engine) RunUntil(limit Time) Time {
	if e.running {
		panic("sim: Run re-entered from within an event")
	}
	if limit < e.now {
		panic(fmt.Sprintf("sim: RunUntil limit %v before now %v", limit, e.now))
	}
	e.running = true
	defer e.stop() // the re-entrancy guard must survive handler panics
	// Only daemon events left: the model has drained. Return at the last
	// model event's time without executing them, so attached
	// instrumentation can never extend a run or advance its clock.
	for e.queue.n > e.daemons {
		if e.queue.peek() > limit {
			e.now = limit
			break
		}
		e.runNext()
	}
	return e.now
}

// stop clears the re-entrancy guard when a run returns.
func (e *Engine) stop() { e.running = false }

// runShardWindow is the round executor the shard group drives (see
// shard.go): it executes every event with at <= limit in heap order,
// models and daemons interleaved. Daemons run unconditionally up to the
// window limit — no local stall rule. That keeps every round's cut
// consistent: a daemon at time t executes in the one round whose window
// covers t, before any later barrier delivery can land in this heap, so
// what it observes is a pure function of the model regardless of how
// components were partitioned. The price is bounded and documented on
// ShardGroup.Run: daemons may additionally tick at times strictly within
// one lookahead window past the final model event.
func (e *Engine) runShardWindow(limit Time) {
	if e.running {
		panic("sim: Run re-entered from within an event")
	}
	e.running = true
	defer e.stop()
	for e.queue.n > 0 && e.queue.peek() <= limit {
		e.runNext()
	}
}

// runNext pops the head event and runs it: the one execution step behind
// RunUntil, runShardWindow and Step, which differ only in when they stop.
// The caller must ensure the queue is non-empty.
//
//rvmalint:hot
func (e *Engine) runNext() {
	ev := e.queue.pop()
	if ev.daemon {
		e.daemons--
	}
	if DebugEnabled {
		e.debugCheckPop(ev)
	}
	e.now = ev.at
	// Recycle before invoking: the handler's own re-scheduling (the
	// self-ticking pattern every model here uses) then reuses the same
	// hot object instead of allocating.
	h := ev.h
	e.release(ev)
	if ev.daemon {
		h.Fire()
		return
	}
	e.lastModelAt = ev.at
	e.executed++
	// The exec observer sees every model pop before its handler runs;
	// the event's scalar fields are still intact after release (release
	// clears only h and state), and the object cannot be reallocated
	// until h schedules something.
	if e.execObs != nil {
		e.execObs.ObserveExec(ev.seq, ev.at, ev.priority, ev.label)
	}
	h.Fire()
}

// syncClock sets the engine clock to t without executing anything. The
// shard group aligns every shard to the global final model time so
// post-run state reads (resource utilization denominators, snapshot
// timestamps) see one consistent clock. This can move the clock backward:
// the final round's window may have run daemon ticks up to lookahead past
// the last model event, but the run ends at the last model event, and
// that is the value post-run readers must see. Safe because everything
// still queued lies strictly beyond the final window limit, which is >= t.
// It is the one place a clock moves behind the queue's last pop, so it
// rebases the queue there: a later schedule may land between t and the
// events the final window left queued.
func (e *Engine) syncClock(t Time) {
	if t < e.queue.last {
		e.queue.rebase(t)
	}
	e.now = t
}

// Step executes exactly one pending event and returns true, or returns
// false if the queue is empty. It is intended for tests and debuggers.
//
//rvmalint:hot
func (e *Engine) Step() bool {
	if e.queue.n == 0 {
		return false
	}
	e.runNext()
	return true
}

// Pending returns the number of model events waiting in the queue. Daemon
// events are excluded: they are instrumentation, not workload.
func (e *Engine) Pending() int { return e.queue.n - e.daemons }

// NextEventTime returns the timestamp of the earliest pending event, or
// MaxTime if the queue is empty.
func (e *Engine) NextEventTime() Time {
	if e.queue.n > 0 {
		return e.queue.peek()
	}
	return MaxTime
}

// DropPools releases the memory the engine keeps for reuse: the event
// free list, the queue's spare chunks (its free list, the rest of its
// chunk slab and the chunk each empty bucket keeps), bucket 0's backing
// array when it is empty, and the unused rest of the event chunk. The
// event pools are sized by the run's peak of pending events and never
// shrink on their own, so a finished run would otherwise hold its peak. Queued events stay queued, and a later Schedule simply
// allocates again. Call it between runs, not inside one: a loop of short
// runs relies on the pools.
func (e *Engine) DropPools() {
	e.free = nil
	e.evSlab.Drop()
	q := &e.queue
	q.free = nil
	q.slab = nil
	if len(q.b0) == 0 {
		q.b0 = nil
	}
	for k := range q.buckets {
		if q.occ[k/64]&(1<<(k%64)) == 0 {
			q.buckets[k] = bucket{min: MaxTime}
			q.fill[k] = chunkCap
		}
	}
}
