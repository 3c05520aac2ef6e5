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

// PushIn is Push for one of many shallow queues: its ring grows into
// arrays carved from s while they are small (Slab.Make), so a queue that
// never holds more than a few entries costs a share of a chunk, not an
// allocation per ring.
//
//rvmalint:hot
func (q *FIFO[T]) PushIn(s *Slab[T], v T) {
	if int(q.n) == len(q.buf) {
		q.regrow(s.Make(max(2*len(q.buf), 1)))
	}
	q.Push(v)
}

// grow doubles the backing array.
func (q *FIFO[T]) grow() {
	//rvmalint:allow hotalloc -- ring growth doubles, so a queue allocates O(log peak depth) times over its life
	q.regrow(make([]T, max(2*len(q.buf), 1)))
}

// regrow moves the queue into buf, which is longer than the queue,
// unrolling the ring into its front.
func (q *FIFO[T]) regrow(buf []T) {
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
// and one handler, Fn, set once by the owner, pops and runs the head.
// So an operation passes through the stage without a closure, and the
// event it schedules is the same event, at the same time and scheduling
// position, a closure would have been. An owner that has one stage per
// component makes Fn a named pointer type over its own record (type
// sentStage Endpoint, say), so setting it allocates nothing. Every Pop
// checks that it fires at its entry's time: if the head is not due, it
// takes the first entry that is (only a clock that ran back queues
// entries out of order), and with none due it panics, so an event that
// breaks the stage's order cannot run the wrong operation; under simdebug
// every Push also checks that its time is not before the previous one.
type Stage[T any] struct {
	q FIFO[staged[T]]
	// Fn is the stage's event handler: it pops the head entry with Pop
	// and runs it. The owner sets it once and schedules it, at an entry's
	// time, for every entry it pushes.
	Fn Handler
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
		s.debugCheckPush(at)
	}
	s.q.Push(staged[T]{at: at, v: v})
}

// debugCheckPush asserts an entry due at at does not queue behind a later
// one.
func (s *Stage[T]) debugCheckPush(at Time) {
	if s.q.n > 0 {
		Assertf(at >= s.q.Back().at, "sim: stage entry due at %v queued behind one due at %v", at, s.q.Back().at)
	}
}

// StageRings is the slab a shard's per-component stages take their first
// rings from (PushIn).
type StageRings[T any] struct{ Slab[staged[T]] }

// PushIn is Push for one of many shallow stages: its queue grows into
// arrays carved from r while it is small (FIFO.PushIn).
//
//rvmalint:hot
func (s *Stage[T]) PushIn(r *StageRings[T], at Time, v T) {
	if DebugEnabled {
		s.debugCheckPush(at)
	}
	s.q.PushIn(&r.Slab, staged[T]{at: at, v: v})
}

// Pop takes the entry whose event fires now.
//
//rvmalint:hot
func (s *Stage[T]) Pop(now Time) T {
	if s.q.n > 0 && s.q.Front().at != now {
		return s.popDue(now)
	}
	return s.q.Pop().v
}

// popDue takes the first entry due now when the head is not: entries were
// queued out of time order, which only a clock that ran back causes (a
// shard lookahead too large for the fabric, which the lookahead canary
// runs on purpose). Entries due at one time fire in the order they were
// queued, so the first one due now is this event's. With none due now,
// the event is not one of the stage's, and it panics.
func (s *Stage[T]) popDue(now Time) T {
	q := &s.q
	size := len(q.buf)
	for k := 0; k < int(q.n); k++ {
		i := (int(q.head) + k) % size
		if q.buf[i].at != now {
			continue
		}
		e := q.buf[i]
		// Close the gap: the k entries ahead of it move back one slot,
		// and the head slot they leave is popped.
		for ; k > 0; k-- {
			j := (i - 1 + size) % size
			q.buf[i] = q.buf[j]
			i = j
		}
		q.Pop()
		return e.v
	}
	panic(fmt.Sprintf("sim: stage event at %v found no entry due then; the head is due at %v", now, q.Front().at))
}

// Len returns the number of entries waiting for their event.
func (s *Stage[T]) Len() int { return s.q.Len() }

// Drop releases an idle stage's queue array, which is sized by the
// stage's peak depth; the next Push allocates again. A stage holding
// entries keeps them, and Fn stays set.
func (s *Stage[T]) Drop() {
	if s.q.n == 0 {
		s.q.buf, s.q.head = nil, 0
	}
}

// Held reports whether the stage holds a queue array: entries, or the
// capacity an idle stage keeps until Drop.
func (s *Stage[T]) Held() bool { return s.q.buf != nil }

// DelayStage is a Stage whose every entry waits out the same delay on one
// engine handle: a host overhead or a poll hop that every component on the
// engine pays alike. The clock never runs back and every entry waits the
// same time, so entries fire in the order they were queued, whichever
// component queued them, and one DelayStage with one handler serves all
// the components of an engine. Each Add schedules the same event a
// per-component stage or a closure would have: same time, priority 0, the
// handle's label, the next seq.
type DelayStage[T any] struct {
	Stage[T]
	eng   Tagged
	delay Time
}

// Init binds the stage to eng with delay d; fn is its event handler,
// which takes the head entry with Next and runs it.
func (s *DelayStage[T]) Init(eng Tagged, d Time, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative stage delay %v", d))
	}
	s.eng, s.delay, s.Fn = eng, d, fn
}

// Delay returns the stage's delay.
func (s *DelayStage[T]) Delay() Time { return s.delay }

// Add queues v and schedules the stage's event one delay from now.
//
//rvmalint:hot
func (s *DelayStage[T]) Add(v T) {
	s.Push(s.eng.Now()+s.delay, v)
	s.eng.ScheduleH(s.delay, s.Fn)
}

// Next takes the entry whose event fires now.
//
//rvmalint:hot
func (s *DelayStage[T]) Next() T { return s.Pop(s.eng.Now()) }

// SlabChunk is how many values a Slab carves from one allocation.
const SlabChunk = 64

// Slab carves zero values of one type from shared chunks: a component
// that makes a record per event, packet, peer, handshake or operation
// pays one allocation per chunk, not one per record. Records whose count
// climbs to a run's peak in its first microseconds are taken in bulk
// this way. It never takes a value back; a chunk is collected once none
// of its values is referenced, so records that outlive a run should come
// from a slab of records that do too. A slab belongs to one shard, like
// the engine whose components use it.
type Slab[T any] struct{ rest []T }

// New returns a pointer to a zero T carved from the current chunk.
//
//rvmalint:hot
func (s *Slab[T]) New() *T {
	if len(s.rest) == 0 {
		//rvmalint:allow hotalloc -- one allocation per SlabChunk records
		s.rest = make([]T, SlabChunk)
	}
	v := &s.rest[0]
	s.rest = s.rest[1:]
	return v
}

// Make returns n zero Ts in one array whose capacity is n: carved from
// the current chunk when n is small, an allocation of exactly n when not.
//
//rvmalint:hot
func (s *Slab[T]) Make(n int) []T {
	if n > SlabChunk/4 {
		//rvmalint:allow hotalloc -- a large array is one allocation, as it would be without the slab
		return make([]T, n)
	}
	if len(s.rest) < n {
		//rvmalint:allow hotalloc -- one allocation per SlabChunk values
		s.rest = make([]T, SlabChunk)
	}
	v := s.rest[:n:n]
	s.rest = s.rest[n:]
	return v
}

// Drop lets the current chunk go; the next New or Make carves a new one.
func (s *Slab[T]) Drop() { s.rest = nil }

// Held reports whether the slab holds a chunk.
func (s *Slab[T]) Held() bool { return s.rest != nil }

// TimerStage is a stage whose entries each wait a delay of their own,
// such as a jittered backoff: they fire in time order, not in the order
// they were queued, so they wait in a heap ordered by time and then by
// queueing order, which is the order the engine fires events due at one
// time. One handler, set once, serves every entry, as a Stage's does,
// and each Add schedules the same event a closure would have: same time,
// priority 0, the handle's label, the next seq.
type TimerStage[T any] struct {
	h   []timed[T]
	n   uint64 // entries queued so far: the heap's tie-break
	eng Tagged
	// Fn is the stage's event handler: it takes the entry due now with
	// Next and runs it.
	Fn Handler
}

type timed[T any] struct {
	at Time
	n  uint64
	v  T
}

// Init binds the stage to eng; fn is its event handler.
func (s *TimerStage[T]) Init(eng Tagged, fn Handler) { s.eng, s.Fn = eng, fn }

// Add queues v and schedules the stage's event d from now.
//
//rvmalint:hot
func (s *TimerStage[T]) Add(d Time, v T) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative timer delay %v", d))
	}
	//rvmalint:allow hotalloc -- the heap's array doubles, so a stage allocates O(log peak entries) times over its life
	s.h = append(s.h, timed[T]{at: s.eng.Now() + d, n: s.n, v: v})
	s.n++
	s.up(len(s.h) - 1)
	s.eng.ScheduleH(d, s.Fn)
}

// Next takes the entry whose event fires now: the heap's head, or, when a
// clock that ran back fired events out of time order (see popDue), the
// first-queued entry due now. With none due now it panics.
//
//rvmalint:hot
func (s *TimerStage[T]) Next() T {
	now := s.eng.Now()
	i := 0
	if len(s.h) == 0 || s.h[0].at != now {
		i = s.due(now)
	}
	v := s.h[i].v
	last := len(s.h) - 1
	s.h[i] = s.h[last]
	s.h[last] = timed[T]{}
	s.h = s.h[:last]
	if i < last {
		s.down(i)
		s.up(i)
	}
	return v
}

// due returns the index of the first-queued entry due now.
func (s *TimerStage[T]) due(now Time) int {
	best := -1
	for i := range s.h {
		if s.h[i].at == now && (best < 0 || s.h[i].n < s.h[best].n) {
			best = i
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("sim: timer event at %v found no entry due then", now))
	}
	return best
}

func (s *TimerStage[T]) less(i, j int) bool {
	a, b := &s.h[i], &s.h[j]
	return a.at < b.at || a.at == b.at && a.n < b.n
}

func (s *TimerStage[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			return
		}
		s.h[i], s.h[p] = s.h[p], s.h[i]
		i = p
	}
}

func (s *TimerStage[T]) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(s.h) {
			return
		}
		if c+1 < len(s.h) && s.less(c+1, c) {
			c++
		}
		if !s.less(c, i) {
			return
		}
		s.h[i], s.h[c] = s.h[c], s.h[i]
		i = c
	}
}

// Len returns the number of entries waiting for their event.
func (s *TimerStage[T]) Len() int { return len(s.h) }

// Drop releases an idle stage's heap array, which is sized by the stage's
// peak of entries; the next Add allocates again.
func (s *TimerStage[T]) Drop() {
	if len(s.h) == 0 {
		s.h = nil
	}
}

// Held reports whether the stage holds a heap array.
func (s *TimerStage[T]) Held() bool { return s.h != nil }
