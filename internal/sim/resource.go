package sim

// Resource models a serially reusable hardware unit — a link transmitter, a
// switch crossbar, a DMA engine — using next-free-time semantics: each
// acquisition occupies the resource for a holding time, and requests that
// arrive while it is busy queue up in FIFO order without any explicit queue
// data structure.
//
// Acquire returns the time at which the caller's occupancy *ends*, which is
// when the modeled unit has finished serving it. This is the standard
// latency-rate server used by network simulators for store-and-forward
// pipes.
//
// The zero value is an idle resource. A resource is a plain value with no
// name, so a component holds its resources inline and a fabric holds its
// ports in flat arrays: building one costs no allocation.
type Resource struct {
	freeAt   Time
	busyTime Time   // accumulated occupied time, for utilization reports
	uses     uint64 // number of acquisitions
}

// Acquire occupies the resource for hold starting no earlier than the
// current time, and returns the completion time (start + hold). If the
// resource is busy the start is deferred until it frees.
func (r *Resource) Acquire(e *Engine, hold Time) Time {
	if hold < 0 {
		panic("sim: negative hold time")
	}
	start := e.Now()
	if r.freeAt > start {
		start = r.freeAt
	}
	end := start + hold
	r.freeAt = end
	r.busyTime += hold
	r.uses++
	return end
}

// AcquireAt is like Acquire but with an explicit earliest start time, for
// callers that model a request arriving in the future (e.g. a packet that
// reaches the switch after a link delay).
func (r *Resource) AcquireAt(earliest Time, hold Time) Time {
	if hold < 0 {
		panic("sim: negative hold time")
	}
	start := earliest
	if r.freeAt > start {
		start = r.freeAt
	}
	end := start + hold
	r.freeAt = end
	r.busyTime += hold
	r.uses++
	return end
}

// Backlog returns how long a request issued now would wait before starting.
func (r *Resource) Backlog(e *Engine) Time {
	if r.freeAt <= e.Now() {
		return 0
	}
	return r.freeAt - e.Now()
}

// BusyTime returns the total occupied time accumulated so far.
func (r *Resource) BusyTime() Time { return r.busyTime }

// Uses returns the number of acquisitions.
func (r *Resource) Uses() uint64 { return r.uses }

// Utilization returns busy time as a fraction of the elapsed time now.
func (r *Resource) Utilization(e *Engine) float64 {
	if e.Now() == 0 {
		return 0
	}
	return Ratio(r.busyTime, e.Now())
}
