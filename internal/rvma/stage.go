package rvma

import (
	"rvma/internal/metrics"
	"rvma/internal/sim"
	"rvma/internal/trace"
)

// pipeline is what an endpoint keeps for the operations it runs: its
// ordered pipeline steps, each a sim.Stage holding the operations waiting
// for its next event, in firing order, behind one callback, and the
// released buffers PostBuffer reuses. It is created on first use and
// dropped after a run, and each callback is bound on its stage's first
// use, not when the endpoint is built: at paper scale most endpoints never
// complete a spilled counter, many send a single message, and a finished
// cluster of 9,702 endpoints should not keep a pipeline for each.
type pipeline struct {
	posts  sim.Stage[poster]          // host post overhead, then the NIC send
	sends  sim.Stage[sender]          // a NIC send's local completion
	spills sim.Stage[*Buffer]         // a spilled counter's host-memory round trip
	writes sim.Stage[completionWrite] // a completion-pointer write landing over the bus

	// spare holds released buffers that left Rewind history. It is kept
	// per endpoint, not per window: a node can hold thousands of windows,
	// most of them idle at any moment.
	spare []*Buffer
	// freePuts lists the spent PutN ops the next PutN reuses.
	freePuts *PutOp
}

// pipeline returns the endpoint's pipeline, creating it on first use.
//
//rvmalint:hot
func (ep *Endpoint) pipeline() *pipeline {
	if ep.pipe == nil {
		//rvmalint:allow hotalloc -- once per endpoint and run: DropPools releases it only after the run
		ep.pipe = &pipeline{}
	}
	return ep.pipe
}

// poster is an operation waiting out the host's post overhead before the
// NIC send it posts.
type poster interface{ post(ep *Endpoint) }

// sender is an operation whose NIC send's local completion it awaits.
type sender interface{ sent(ep *Endpoint) }

// completionWrite is the completion unit's pointer write for one buffer,
// queued behind the receive bus: what lands, and who learns of it.
type completionWrite struct {
	buf     *Buffer
	length  int      // the length written beside the buffer's head address
	epoch   int64    // the window's epoch once this buffer completed
	unitAt  sim.Time // when the completion unit fired
	waiters []*sim.Future
	spans   []*metrics.Span
}

// post queues op behind the host's post overhead.
//
//rvmalint:hot
func (ep *Endpoint) post(op poster) {
	s := &ep.pipeline().posts
	if s.Fn == nil {
		s.Fn = ep.postNext
	}
	d := ep.nic.Profile().HostPostOverhead
	s.Push(ep.eng.Now()+d, op)
	ep.eng.Schedule(d, s.Fn)
}

//rvmalint:hot
func (ep *Endpoint) postNext() { ep.pipe.posts.Pop(ep.eng.Now()).post(ep) }

// send hands cmd's message to the NIC; op.sent runs at the message's
// local completion, the NIC's own event.
//
//rvmalint:hot
func (ep *Endpoint) send(dst int, cmd *command, op sender) {
	s := &ep.pipeline().sends
	if s.Fn == nil {
		s.Fn = ep.sentNext
	}
	s.Push(ep.nic.SendMessage(dst, cmd.total, cmd.payload, s.Fn), op)
}

//rvmalint:hot
func (ep *Endpoint) sentNext() { ep.pipe.sends.Pop(ep.eng.Now()).sent(ep) }

// spill queues buf's completion behind the host-memory round trip of its
// window's spilled counter.
//
//rvmalint:hot
func (ep *Endpoint) spill(buf *Buffer) {
	s := &ep.pipeline().spills
	if s.Fn == nil {
		s.Fn = ep.spillNext
	}
	d := ep.cfg.HostCounterPenalty
	s.Push(ep.eng.Now()+d, buf)
	ep.eng.Schedule(d, s.Fn)
}

// spillNext completes the buffer whose counter update has come back from
// host memory, unless the window closed or moved on meanwhile.
//
//rvmalint:hot
func (ep *Endpoint) spillNext() {
	buf := ep.pipe.spills.Pop(ep.eng.Now())
	w := buf.win
	if w.closed || w.Head() != buf {
		return
	}
	w.counter -= w.threshold
	buf.Count = w.threshold
	w.completeHead()
	w.maybeComplete()
}

// write queues a completion-pointer write that lands at t over the bus.
//
//rvmalint:hot
func (ep *Endpoint) write(t sim.Time, c completionWrite) {
	s := &ep.pipeline().writes
	if s.Fn == nil {
		s.Fn = ep.writeNext
	}
	s.Push(t, c)
	ep.eng.At(t, s.Fn)
}

// writeNext lands a completion-pointer write: the buffer is complete, its
// cell holds (head, length), and the message spans, one-shot waiters and
// the window's completion handler observe it, in that order.
//
//rvmalint:hot
func (ep *Endpoint) writeNext() {
	c := ep.pipe.writes.Pop(ep.eng.Now())
	now := ep.eng.Now()
	buf := c.buf
	buf.completed = true
	buf.CompletedAt = now
	buf.Cell.Set(buf.Region.Base, c.length) // watchers (MWait) fire here
	for _, sp := range c.spans {
		// The complete stage's service is the completion-pointer write
		// itself; anything before the unit fired (waiting for the epoch's
		// other messages, a counter spill) is wait. Abandoned stragglers
		// still on the pending list ended already — these calls are no-ops
		// for them.
		sp.StageService(now, "complete", now-c.unitAt)
		sp.End(now)
	}
	w := buf.win
	if ep.tracer != nil {
		//rvmalint:allow hotalloc -- tracer-only branch; a traced run is a debugging run
		ep.tracer.Eventf(trace.CatRVMA, "node %d win %#x epoch %d complete len=%d",
			ep.Node(), w.vaddr, c.epoch, c.length)
	}
	for _, f := range c.waiters {
		if !f.Done() { // a bailed IncEpoch may have resolved its waiter
			f.Complete(ep.eng.Engine, buf)
		}
	}
	if w.onCompletion != nil {
		w.onCompletion.Completed(buf)
	}
}

// DropPools releases the endpoint's pipeline, whose stage arrays, spare
// buffers and free ops are sized by the run's peak in flight, unless an
// operation still waits in a stage, and the reliable puts' reassembly
// state, which no packet of a finished run is left to hit. Call it
// between runs, not inside one.
func (ep *Endpoint) DropPools() {
	if p := ep.pipe; p != nil && p.posts.Len()+p.sends.Len()+p.spills.Len()+p.writes.Len() == 0 {
		ep.pipe = nil
	}
	ep.relAsm.Reset()
}
