// Package fixture seeds hot-path allocations for the hotalloc analyzer
// test. It models the real engine's shape: a //rvmalint:hot root set on
// the scheduling entry points, helpers reachable from them, and the
// exemptions (panic paths, build-time-pruned debug branches, code only
// reachable outside the root set).
package fixture

// debugEnabled mirrors sim.DebugEnabled: constant false in normal
// builds, so guarded blocks are pruned before the analysis runs.
const debugEnabled = false

type event struct {
	at int64
	fn func()
}

// Engine is a mock of the simulation kernel's event loop.
type Engine struct {
	queue   []*event
	free    []*event
	pending int64
	sink    interface{}
}

// Schedule is the hot entry point; the closure below is the seeded
// violation: it captures e and at, so every call allocates.
//
//rvmalint:hot
func (e *Engine) Schedule(at int64, fn func()) {
	e.pending++
	cb := func() { // want `closure capturing outer variables allocates on the hot path`
		e.pending--
		fn()
	}
	e.push(at, cb)
}

// push is not marked hot itself: it must be reported because it is
// reachable from Schedule.
func (e *Engine) push(at int64, fn func()) {
	ev := e.alloc()
	ev.at = at
	ev.fn = fn
	e.queue = append(e.queue, ev) //rvmalint:allow hotalloc -- fixture: amortized heap growth, mirrors the real queue
}

// alloc is two hops from the root; the pool-miss allocation is the
// diagnostic, attributed back to the hot entry point.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	return &event{} // want `&composite literal allocates on the hot path in Engine.alloc \(reachable from Engine.Schedule\)`
}

// Pop drains one event. The debug branch allocates, but debugEnabled is
// a build-time constant false, so the block is pruned, not reported.
// The panic path's boxing is likewise exempt: crash diagnostics are
// allowed to allocate.
//
//rvmalint:hot
func (e *Engine) Pop() {
	if len(e.queue) == 0 {
		panic(e.describe("pop on empty queue"))
	}
	if debugEnabled {
		audit := make([]int64, 0, len(e.queue))
		for _, ev := range e.queue {
			audit = append(audit, ev.at)
		}
		e.sink = audit
	}
	ev := e.queue[len(e.queue)-1]
	e.queue = e.queue[:len(e.queue)-1]
	e.trace(ev.at)
	e.record(nil) // the nil interface: nothing to box
	ev.fn()
}

// Tick reschedules itself. Calling a method allocates nothing, but
// e.Tick used as a value is a method value: it binds e in a closure, one
// allocation per call.
//
//rvmalint:hot
func (e *Engine) Tick() {
	e.trace(e.pending)              // a call, not a method value
	e.Schedule(e.pending+1, e.Tick) // want `bound method value Tick allocates on the hot path in Engine.Tick`
}

// trace boxes its argument into an interface parameter — invisible in
// the source, one heap allocation per event at run time.
func (e *Engine) trace(at int64) {
	e.record(at) // want `interface boxing of int64 argument to record`
}

func (e *Engine) record(v interface{}) {
	e.sink = v
}

// describe is only called from a panic path, so its allocations are
// exempt even though it is reachable from a hot root.
func (e *Engine) describe(msg string) string {
	return msg
}

// Report runs outside the hot set: identical allocations draw no
// diagnostics because no //rvmalint:hot root reaches them.
func (e *Engine) Report() []int64 {
	out := make([]int64, 0, len(e.queue))
	for _, ev := range e.queue {
		out = append(out, ev.at)
	}
	return out
}
