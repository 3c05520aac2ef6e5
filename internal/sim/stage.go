package sim

import "fmt"

// FIFO is a growable ring buffer. Its backing array grows to the queue's
// peak depth and keeps that capacity, so a queue that fills and drains on
// every burst allocates only while it reaches a new peak.
type FIFO[T any] struct {
	buf     []T
	head, n int32 // 32 bits keep a FIFO embedded in a small record cheap
}

// Len returns the number of queued entries.
func (q *FIFO[T]) Len() int { return int(q.n) }

// Front returns the head entry. The caller ensures the queue is not empty.
func (q *FIFO[T]) Front() *T { return &q.buf[q.head] }

// Back returns the tail entry. The caller ensures the queue is not empty.
func (q *FIFO[T]) Back() *T {
	i := int(q.head) + int(q.n) - 1
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

// Push appends v at the tail.
//
//rvmalint:hot
func (q *FIFO[T]) Push(v T) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	i := int(q.head) + int(q.n)
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

// grow doubles the backing array, unrolling the ring into its front.
func (q *FIFO[T]) grow() {
	//rvmalint:allow hotalloc -- ring growth doubles, so a queue allocates O(log peak depth) times over its life
	buf := make([]T, max(2*len(q.buf), 1))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Pop removes and returns the head entry. The caller ensures the queue is
// not empty.
//
//rvmalint:hot
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.n--
	q.head++
	if int(q.head) == len(q.buf) || q.n == 0 {
		q.head = 0
	}
	return v
}

// Stage is one step of a component's operation pipelines whose events
// fire in the order the component schedules them: a constant delay (host
// post overhead, a poll hop) or a FIFO resource (the bus, the NIC send
// pipe), whose completion times never decrease from one use to the next
// and whose ties break by scheduling order. Its entries wait in a FIFO,
// and one callback, Fn, bound once by the owner, pops and runs the head.
// So an operation passes through the stage without a closure, and the
// event it schedules is the same event, at the same time and scheduling
// position, a closure would have been. Every Pop checks that it fires at
// its entry's time and panics if not, so an event that breaks the stage's
// order cannot run the wrong operation; under simdebug every Push also
// checks that its time is not before the previous one.
type Stage[T any] struct {
	q FIFO[staged[T]]
	// Fn is the stage's event callback: it pops the head entry with Pop
	// and runs it. The owner binds it once and schedules it, at an entry's
	// time, for every entry it pushes.
	Fn func()
}

type staged[T any] struct {
	at Time
	v  T
}

// Push queues v for the stage's event at time at; the caller schedules
// s.Fn at that time.
//
//rvmalint:hot
func (s *Stage[T]) Push(at Time, v T) {
	if DebugEnabled {
		if s.q.n > 0 {
			Assertf(at >= s.q.Back().at, "sim: stage entry due at %v queued behind one due at %v", at, s.q.Back().at)
		}
	}
	s.q.Push(staged[T]{at: at, v: v})
}

// Pop takes the entry whose event fires now.
//
//rvmalint:hot
func (s *Stage[T]) Pop(now Time) T {
	e := s.q.Pop()
	if e.at != now {
		panic(fmt.Sprintf("sim: stage event at %v popped the entry due at %v", now, e.at))
	}
	return e.v
}

// Len returns the number of entries waiting for their event.
func (s *Stage[T]) Len() int { return s.q.Len() }

// Drop releases an idle stage's queue array, which is sized by the
// stage's peak depth; the next Push allocates again. A stage holding
// entries keeps them, and Fn stays bound.
func (s *Stage[T]) Drop() {
	if s.q.n == 0 {
		s.q.buf, s.q.head = nil, 0
	}
}
