package sim

import (
	"fmt"
)

// event is a scheduled callback. Events are ordered by time, then priority
// (lower runs first), then by the sequence number assigned at scheduling
// time, which makes execution order fully deterministic. The engine pools
// events and recycles one as soon as it has executed; no reference to an
// event ever leaves the package.
type event struct {
	at       Time
	priority int
	seq      uint64
	fn       func()
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

// eventQueue is a 4-ary min-heap over (time, priority, seq), implemented
// directly on the slice so hot-path pushes and pops never cross a
// heap.Interface boundary (no interface conversions, no indirect method
// calls). A 4-ary heap has half the levels of a binary heap: sift-up — the
// dominant cost of the schedule-heavy simulation workload — does half the
// comparisons, and the four children of a node share a cache line of
// pointers on the way down.
type eventQueue []*event

// heapArity is the heap branching factor. Children of node i live at
// heapArity*i+1 .. heapArity*i+heapArity; the parent of i is (i-1)/heapArity.
const heapArity = 4

// push inserts ev.
func (q *eventQueue) push(ev *event) {
	//rvmalint:allow hotalloc -- heap growth is amortized O(1); the backing array stabilizes at peak occupancy
	*q = append(*q, ev)
	q.siftUp(len(*q) - 1)
}

// pop removes and returns the minimum event. The caller must ensure the
// queue is non-empty.
func (q *eventQueue) pop() *event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if n > 0 {
		h[0] = last
		h.siftDown(0)
	}
	return top
}

// siftUp restores the heap property from index i toward the root.
func (q eventQueue) siftUp(i int) {
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := q[parent]
		if !eventLess(ev, p) {
			break
		}
		q[i] = p
		i = parent
	}
	q[i] = ev
}

// siftDown restores the heap property from index i toward the leaves.
func (q eventQueue) siftDown(i int) {
	ev := q[i]
	n := len(q)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(q[c], q[min]) {
				min = c
			}
		}
		if !eventLess(q[min], ev) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = ev
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside its events (process bodies
// spawned via Spawn are coroutines that an event switches into and that
// switch back when they park, so only one of them runs at a time).
// Concurrency lives one level up: independent
// engines — one per experiment cell — may run in parallel on separate
// goroutines because an engine shares no mutable state with any other.
type Engine struct {
	now       Time
	queue     eventQueue
	free      []*event // recycled events; see at/release
	seq       uint64   // model scheduling counter; events carry 2*seq
	dseq      uint64   // daemon scheduling counter; daemons carry 2*dseq+1
	executed  uint64
	scheduled uint64
	daemons   int // queued daemon events
	rng       *RNG
	running   bool
	procs     int // live processes, for leak diagnostics

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
	return &Engine{rng: NewRNG(seed)}
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

// EventsScheduled returns the number of model events scheduled so far
// (daemon events are not counted).
func (e *Engine) EventsScheduled() uint64 { return e.scheduled }

// at queues fn at absolute time t, reusing a recycled event when the free
// list has stock. Every field is (re)initialized here, so a pooled object
// carries nothing over from its previous life. It is the one queueing
// path behind every Schedule/At variant and the shard group's handoffs;
// callers check t against the clock.
//
//rvmalint:hot
func (e *Engine) at(t Time, priority int, label Label, fn func(), daemon bool) {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		//rvmalint:allow hotalloc -- pool miss: the free list feeds steady state, so this runs O(peak concurrency) times, not per event
		ev = &event{}
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
		e.scheduled++
	}
	ev.fn = fn
	ev.label = label
	ev.daemon = daemon
	ev.state = evQueued
	e.queue.push(ev)
}

// release returns an executed event to the free list. The callback is
// dropped immediately so the pool never pins captured state.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.state = evFree
	//rvmalint:allow hotalloc -- free-list growth is amortized; capacity stabilizes at peak event population
	e.free = append(e.free, ev)
}

// Schedule runs fn after delay d. A negative delay panics: causality in a
// discrete-event simulation only moves forward.
//
//rvmalint:hot
func (e *Engine) Schedule(d Time, fn func()) {
	e.schedule(d, 0, NoLabel, fn, false)
}

// ScheduleP runs fn after delay d with an explicit priority; among events
// at the same timestamp, lower priorities run first. Priorities let models
// enforce intra-timestep ordering (e.g. "deliver before poll").
//
//rvmalint:hot
func (e *Engine) ScheduleP(d Time, priority int, fn func()) {
	e.schedule(d, priority, NoLabel, fn, false)
}

// schedule is the relative-delay entry point behind every Schedule*
// variant, the Tagged ones included.
//
//rvmalint:hot
func (e *Engine) schedule(d Time, priority int, label Label, fn func(), daemon bool) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.at(e.now+d, priority, label, fn, daemon)
}

// At runs fn at absolute time t, which must not be in the past.
//
//rvmalint:hot
func (e *Engine) At(t Time, fn func()) {
	e.atModel(t, 0, NoLabel, fn)
}

// atModel is the absolute-time entry point behind At and Tagged.At/AtP:
// a time in the past panics.
//
//rvmalint:hot
func (e *Engine) atModel(t Time, priority int, label Label, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.at(t, priority, label, fn, false)
}

// ScheduleDaemonP runs fn after delay d at the given priority as a daemon
// event. Daemons are instrumentation riders (the telemetry sampler's
// ticks): they never keep a run alive — when only daemon events remain
// queued, Run returns at the time of the last model event without
// executing them — and they are invisible to the model-facing counters
// (EventsScheduled, EventsExecuted, Pending), so a run's externally
// observable results are byte-identical with or without daemons attached.
// Daemon callbacks must be pure readers of the model: no model-event
// scheduling, no RNG draws, no state mutation.
//
//rvmalint:hot
func (e *Engine) ScheduleDaemonP(d Time, priority int, fn func()) {
	e.schedule(d, priority, NoLabel, fn, true)
}

// Run executes events until only daemon events remain queued. It returns
// the final simulated time.
func (e *Engine) Run() Time { return e.RunUntil(MaxTime) }

// RunUntil executes events with timestamps <= limit. The clock is left at
// min(limit, time of last executed event's successor).
//
//rvmalint:hot
func (e *Engine) RunUntil(limit Time) Time {
	if e.running {
		panic("sim: Run re-entered from within an event")
	}
	e.running = true
	//rvmalint:allow hotalloc -- one closure per Run call, not per event; the re-entrancy guard must survive callback panics
	defer func() { e.running = false }()
	// Only daemon events left: the model has drained. Return at the last
	// model event's time without executing them, so attached
	// instrumentation can never extend a run or advance its clock.
	for len(e.queue) > e.daemons {
		if e.queue[0].at > limit {
			e.now = limit
			break
		}
		e.runNext()
	}
	return e.now
}

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
	defer func() { e.running = false }()
	for len(e.queue) > 0 && e.queue[0].at <= limit {
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
	// Recycle before invoking: the callback's own re-scheduling (the
	// self-ticking pattern every model here uses) then reuses the same
	// hot object instead of allocating.
	fn := ev.fn
	e.release(ev)
	if ev.daemon {
		fn()
		return
	}
	e.lastModelAt = ev.at
	e.executed++
	// The exec observer sees every model pop before its callback runs;
	// the event's scalar fields are still intact after release (release
	// clears only fn and state), and the object cannot be reallocated
	// until fn schedules something.
	if e.execObs != nil {
		e.execObs.ObserveExec(ev.seq, ev.at, ev.priority, ev.label)
	}
	fn()
}

// syncClock sets the engine clock to t without executing anything. The
// shard group aligns every shard to the global final model time so
// post-run state reads (resource utilization denominators, snapshot
// timestamps) see one consistent clock. This can move the clock backward:
// the final round's window may have run daemon ticks up to lookahead past
// the last model event, but the run ends at the last model event, and
// that is the value post-run readers must see. Safe because everything
// still queued lies strictly beyond the final window limit, which is >= t.
func (e *Engine) syncClock(t Time) {
	e.now = t
}

// Step executes exactly one pending event and returns true, or returns
// false if the queue is empty. It is intended for tests and debuggers.
//
//rvmalint:hot
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.runNext()
	return true
}

// Pending returns the number of model events waiting in the queue. Daemon
// events are excluded: they are instrumentation, not workload.
func (e *Engine) Pending() int { return len(e.queue) - e.daemons }

// NextEventTime returns the timestamp of the earliest pending event, or
// MaxTime if the queue is empty.
func (e *Engine) NextEventTime() Time {
	if len(e.queue) > 0 {
		return e.queue[0].at
	}
	return MaxTime
}

// PoolFree returns the number of recycled event objects currently waiting
// in the free list, for tests and diagnostics of the pooling layer.
func (e *Engine) PoolFree() int { return len(e.free) }
