//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Process is a cooperatively scheduled simulation actor, in the style of
// process-oriented kernels (SimPy, OMNeT++ activities). A process body runs
// as a coroutine (iter.Pull): resuming it switches directly from the
// engine's event into the body, and parking switches straight back, so
// exactly one of them runs at any instant. Process code needs no locking
// and the simulation stays deterministic.
//
// Processes make protocol code read sequentially: a motif rank can write
// "put; wait for completion; compute; next iteration" instead of a hand-
// rolled state machine.
type Process struct {
	eng   *Engine
	name  string
	label Label                   // stamped on spawn/Sleep/resume events (Tagged.Spawn)
	wake  func()                  // p.resume, bound once at spawn so Sleep and Wait allocate nothing
	next  func() (struct{}, bool) // switches into the body; re-raises a panic from it
	yield func(struct{}) bool     // switches from the body back to whoever called next
	done  bool
}

// Spawn starts a new process executing body at the current simulated time.
// The body begins running when the engine reaches the spawn event; Spawn
// itself returns immediately. The name is the process's role ("sweep-rank",
// "kv-server"), reported if its body panics; spawn sites pass a constant,
// so starting a process formats nothing.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	return e.spawn(name, NoLabel, body)
}

func (e *Engine) spawn(name string, label Label, body func(p *Process)) *Process {
	if len(e.procSlab) == 0 {
		e.procSlab = make([]Process, procChunk)
	}
	p := &e.procSlab[0]
	e.procSlab = e.procSlab[1:]
	p.eng, p.name, p.label = e, name, label
	p.wake = p.resume
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.finish()
		body(p)
	})
	e.procs++
	e.schedule(0, 0, label, p.wake, false)
	return p
}

// procChunk is how many Process records an engine carves from one
// allocation. Motifs spawn one long-lived rank per node when a run
// starts, so the records are taken in bulk; a chunk is collected once none
// of its processes is referenced any more.
const procChunk = 64

// resume switches into the process and returns when it parks again or
// finishes. It runs from inside an event — the engine's, or another
// process's when that body completes a future this one waits on.
//
//rvmalint:hot
func (p *Process) resume() {
	if !p.done {
		p.next()
	}
}

// finish runs as the body returns or panics, still inside the coroutine.
// It names the process in a panic, which next then re-raises in resume's
// caller.
func (p *Process) finish() {
	p.done = true
	p.eng.procs--
	// The finished coroutine is unreachable from here on, so the record,
	// which shares its chunk with live ones, keeps none of it alive.
	p.next, p.yield = nil, nil
	if r := recover(); r != nil {
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
	}
}

// park suspends the process and switches back to the event that resumed
// it. The caller must have arranged for a future event to call resume.
//
//rvmalint:hot
func (p *Process) park() {
	p.yield(struct{}{})
}

// Name returns the name given at Spawn time, for diagnostics.
func (p *Process) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.Now() }

// Sleep suspends the process for d simulated time.
//
//rvmalint:hot
func (p *Process) Sleep(d Time) {
	p.eng.schedule(d, 0, p.label, p.wake, false)
	p.park()
}

// Wait suspends the process until the future completes. If the future is
// already complete it returns immediately without yielding.
//
//rvmalint:hot
func (p *Process) Wait(f *Future) {
	if f.Done() {
		return
	}
	f.OnComplete(p.wake)
	p.park()
}

// WaitAll suspends the process until every future completes.
func (p *Process) WaitAll(fs ...*Future) {
	for _, f := range fs {
		p.Wait(f)
	}
}

// Future is a one-shot completion handle: it transitions from pending to
// done exactly once and then invokes every registered callback, at the
// simulated time of completion. Futures are how the NIC models hand
// asynchronous completions (DMA done, message delivered, threshold reached)
// back to host-side code.
//
// The first two waiters are held inline and only later ones go to a
// slice, so a future with one or two waiters (an operation's own
// continuation, then the process waiting on it) allocates nothing beyond
// itself. A Future's zero value is a pending future, so an operation can
// embed its futures and hand out pointers to them.
type Future struct {
	done          bool
	at            Time
	value         any
	first, second func()
	more          *[]func() // the third waiter on
}

// NewFuture returns a pending future.
func NewFuture() *Future { return &Future{} }

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// Value returns the value passed to Complete, or nil while pending.
func (f *Future) Value() any { return f.value }

// CompletedAt returns the simulated time Complete was called. It is only
// meaningful once Done reports true.
func (f *Future) CompletedAt() Time { return f.at }

// Complete marks the future done with the given value and runs callbacks
// synchronously (in registration order) at the current simulated time.
// Completing an already-complete future panics: completions in the models
// represent unique hardware events.
//
//rvmalint:hot
func (f *Future) Complete(e *Engine, value any) {
	if f.done {
		panic("sim: Future completed twice")
	}
	f.done = true
	f.value = value
	f.at = e.Now()
	first, second, more := f.first, f.second, f.more
	f.first, f.second, f.more = nil, nil, nil
	if first == nil {
		return
	}
	first()
	if second == nil {
		return
	}
	second()
	if more == nil {
		return
	}
	for _, cb := range *more {
		cb()
	}
}

// OnComplete registers a callback to run when the future completes. If the
// future is already done the callback runs immediately.
//
//rvmalint:hot
func (f *Future) OnComplete(cb func()) {
	if f.done {
		cb()
		return
	}
	switch {
	case f.first == nil:
		f.first = cb
	case f.second == nil:
		f.second = cb
	case f.more == nil:
		//rvmalint:allow hotalloc -- only a third waiter allocates the overflow slice; one- and two-waiter futures stay allocation-free
		f.more = &[]func(){cb}
	default:
		//rvmalint:allow hotalloc -- overflow growth is amortized over the third and later waiters of one future
		*f.more = append(*f.more, cb)
	}
}
