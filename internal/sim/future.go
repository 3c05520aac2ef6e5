package sim

// Future is a one-shot completion handle: it transitions from pending to
// done exactly once and then invokes every registered callback, at the
// simulated time of completion. Futures are how the NIC models hand
// asynchronous completions (DMA done, message delivered, threshold reached)
// back to host-side code.
//
// The first two waiters are held inline and only later ones go to a
// slice, so a future with one or two waiters (an operation's own
// continuation, then the step waiting on it) allocates nothing beyond
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
