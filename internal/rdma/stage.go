package rdma

import (
	"fmt"

	"rvma/internal/sim"
)

// fifo is a growable ring buffer. Its backing array grows to the queue's
// peak depth and keeps that capacity, so a queue that fills and drains on
// every burst allocates only while it reaches a new peak.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

// front returns the head entry. The caller ensures the queue is not empty.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

// back returns the tail entry. The caller ensures the queue is not empty.
func (q *fifo[T]) back() *T {
	i := q.head + q.n - 1
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

//rvmalint:hot
func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

// grow doubles the backing array, unrolling the ring into its front.
func (q *fifo[T]) grow() {
	//rvmalint:allow hotalloc -- ring growth doubles, so a queue allocates O(log peak depth) times over its life
	buf := make([]T, max(2*len(q.buf), 1))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// pop removes and returns the head entry. The caller ensures the queue is
// not empty.
//
//rvmalint:hot
func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.n--
	q.head++
	if q.head == len(q.buf) || q.n == 0 {
		q.head = 0
	}
	return v
}

// stage is one step of the endpoint's operation pipelines whose events
// fire in the order the endpoint schedules them: a constant delay (host
// post overhead, a poll hop) or a FIFO resource (the bus, the NIC send
// pipe), whose completion times never decrease from one use to the next
// and whose ties break by scheduling order. Its entries wait in a FIFO,
// and one callback, bound when the endpoint is built, pops and runs the
// head. So an operation passes through the stage without a closure, and
// the event it schedules is the same event, at the same time and
// scheduling position, a closure would have been. Every pop checks that
// it fires at its entry's time and panics if not, so an event that breaks
// the stage's order cannot run the wrong operation; under simdebug every
// push also checks that its time is not before the previous one.
type stage[T any] struct {
	q  fifo[staged[T]]
	fn func() // the stage's event callback
}

type staged[T any] struct {
	at sim.Time
	v  T
}

// push queues v for the stage's event at time at; the caller schedules
// s.fn at that time.
//
//rvmalint:hot
func (s *stage[T]) push(at sim.Time, v T) {
	if sim.DebugEnabled {
		if s.q.n > 0 {
			sim.Assertf(at >= s.q.back().at, "rdma: stage entry due at %v queued behind one due at %v", at, s.q.back().at)
		}
	}
	s.q.push(staged[T]{at: at, v: v})
}

// pop takes the entry whose event fires now.
//
//rvmalint:hot
func (s *stage[T]) pop(now sim.Time) T {
	e := s.q.pop()
	if e.at != now {
		panic(fmt.Sprintf("rdma: stage event at %v popped the entry due at %v", now, e.at))
	}
	return e.v
}

// poster is an operation waiting out the host's post overhead before the
// NIC send it posts.
type poster interface{ post(ep *Endpoint) }

// sender is an operation whose NIC send's local completion it awaits.
type sender interface{ sent(ep *Endpoint) }

// completion is a future the host resolves with v once it observes the
// completion: after a bus write lands, then a poll hop.
type completion struct {
	f  *sim.Future
	v  any
	cq bool // a CQ entry (PollInterval + CQProcessOverhead), else a polled byte (PollInterval + HostCompletionOverhead)
}

// bindStages binds each stage's callback once, when the endpoint is built.
func (ep *Endpoint) bindStages() {
	ep.posts.fn = ep.postNext
	ep.reaps.fn = ep.reapNext
	ep.sends.fn = ep.sentNext
	ep.dmas.fn = ep.dmaNext
	ep.cqPolls.fn = ep.cqPollNext
	ep.bytePolls.fn = ep.bytePollNext
}

// post queues op behind the host's post overhead.
//
//rvmalint:hot
func (ep *Endpoint) post(op poster) {
	d := ep.nic.Profile().HostPostOverhead
	ep.posts.push(ep.eng.Now()+d, op)
	ep.eng.Schedule(d, ep.posts.fn)
}

//rvmalint:hot
func (ep *Endpoint) postNext() { ep.posts.pop(ep.eng.Now()).post(ep) }

// reap queues a conservative put's fence post behind the poll, CQ
// processing and post overheads that follow its transport ACK.
//
//rvmalint:hot
func (ep *Endpoint) reap(f *putFence) {
	prof := ep.nic.Profile()
	d := prof.PollInterval + prof.CQProcessOverhead + prof.HostPostOverhead
	ep.reaps.push(ep.eng.Now()+d, f)
	ep.eng.Schedule(d, ep.reaps.fn)
}

//rvmalint:hot
func (ep *Endpoint) reapNext() { ep.reaps.pop(ep.eng.Now()).post(ep) }

// send hands op's message to the NIC; op.sent runs at the message's local
// completion, the NIC's own event.
//
//rvmalint:hot
func (ep *Endpoint) send(dst, size int, cmd *command, op sender) {
	at := ep.nic.SendMessage(dst, size, cmd.payload, ep.sends.fn)
	ep.sends.push(at, op)
}

//rvmalint:hot
func (ep *Endpoint) sentNext() { ep.sends.pop(ep.eng.Now()).sent(ep) }

// dma queues c behind a bus write that lands at t.
//
//rvmalint:hot
func (ep *Endpoint) dma(t sim.Time, c completion) {
	ep.dmas.push(t, c)
	ep.eng.At(t, ep.dmas.fn)
}

// dmaNext passes a landed write's completion on to the host's poll.
//
//rvmalint:hot
func (ep *Endpoint) dmaNext() {
	c := ep.dmas.pop(ep.eng.Now())
	prof := ep.nic.Profile()
	if c.cq {
		d := prof.PollInterval + prof.CQProcessOverhead
		ep.cqPolls.push(ep.eng.Now()+d, c)
		ep.eng.Schedule(d, ep.cqPolls.fn)
		return
	}
	ep.pollByte(c)
}

// pollByte queues c behind the poll that observes a landed byte.
//
//rvmalint:hot
func (ep *Endpoint) pollByte(c completion) {
	prof := ep.nic.Profile()
	d := prof.PollInterval + prof.HostCompletionOverhead
	ep.bytePolls.push(ep.eng.Now()+d, c)
	ep.eng.Schedule(d, ep.bytePolls.fn)
}

//rvmalint:hot
func (ep *Endpoint) cqPollNext() {
	c := ep.cqPolls.pop(ep.eng.Now())
	c.f.Complete(ep.eng.Engine, c.v)
}

//rvmalint:hot
func (ep *Endpoint) bytePollNext() {
	c := ep.bytePolls.pop(ep.eng.Now())
	c.f.Complete(ep.eng.Engine, c.v)
}
