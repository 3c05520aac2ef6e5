package rvma

import (
	"fmt"

	"rvma/internal/metrics"
	"rvma/internal/nic"
	"rvma/internal/sim"
	"rvma/internal/trace"
)

// shard is what the endpoints on one engine share: the pipeline stages
// whose delay is a host constant, the host post overhead and a spilled
// counter's round trip, and the slabs pipelines, PutN ops, reliable
// puts' attempts and the first rings of the endpoints' small queues are
// carved from. A cluster makes one per shard (InitEndpoints); a standalone
// endpoint (NewEndpoint) has a shard of its own. Every entry of a
// constant-delay stage waits the same time on the same clock, so entries
// fire in the order they were queued, whichever endpoint queued them
// (sim.DelayStage).
type shard struct {
	eng      *sim.Engine
	posts    sim.DelayStage[posting] // host post overhead, then the NIC send
	spills   sim.DelayStage[*Buffer] // a spilled counter's host-memory round trip
	pipes    sim.Slab[pipeline]
	puts     sim.Slab[PutOp]
	attempts sim.Slab[putAttempt] // reliable puts' attempts, never reused

	// The first rings of the endpoints' send stages and reassembly
	// queues (sim.FIFO.PushIn): most never hold more than a few entries.
	sendRings sim.StageRings[sender]
	asmRings  nic.AssemblerRings
}

// posting is an operation waiting out the host's post overhead, and the
// endpoint that posted it.
type posting struct {
	ep *Endpoint
	op poster
}

// newShard makes the shared state of the endpoints on n's engine: posts
// wait out n's HostPostOverhead, spills the counter penalty.
func newShard(n *nic.NIC, penalty sim.Time) *shard {
	sh := &shard{eng: n.Engine()}
	eng := n.Engine().Tag("rvma")
	sh.posts.Init(eng, n.Profile().HostPostOverhead, sim.Func(sh.postNext))
	sh.spills.Init(eng, penalty, sim.Func(sh.spillNext))
	return sh
}

// check panics unless n's host post overhead and the counter penalty
// match the delays the shard's stages were built with: one stage cannot
// hold two delays.
func (sh *shard) check(n *nic.NIC, penalty sim.Time) {
	for _, f := range []struct {
		name      string
		have, got sim.Time
	}{
		{"HostPostOverhead", sh.posts.Delay(), n.Profile().HostPostOverhead},
		{"HostCounterPenalty", sh.spills.Delay(), penalty},
	} {
		if f.have != f.got {
			panic(fmt.Sprintf("rvma: node %d has %s %v, the other endpoints on its engine %v: endpoints sharing an engine share its stages",
				n.Node(), f.name, f.got, f.have))
		}
	}
}

// drop releases the arrays of the shard's idle stages and its slabs'
// chunks.
func (sh *shard) drop() {
	sh.posts.Drop()
	sh.spills.Drop()
	sh.pipes.Drop()
	sh.puts.Drop()
	sh.attempts.Drop()
	sh.sendRings.Drop()
	sh.asmRings.Drop()
}

// pipeline is what an endpoint keeps for the operations it runs: its
// ordered pipeline steps that follow the NIC's own resources, each a
// sim.Stage holding the operations waiting for its next event, in firing
// order, behind one handler, and the released buffers PostBuffer reuses.
// It is carved on first use and dropped after a run: at paper scale many
// endpoints send a single message, and a finished cluster of 9,702
// endpoints should not keep a pipeline for each. Each stage's handler is
// the endpoint itself, as a named pointer type (sentStage, writeStage).
type pipeline struct {
	sends  sim.Stage[sender]          // a NIC send's local completion
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
		p := ep.sh.pipes.New()
		p.sends.Fn, p.writes.Fn = (*sentStage)(ep), (*writeStage)(ep)
		ep.pipe = p
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
func (ep *Endpoint) post(op poster) { ep.sh.posts.Add(posting{ep, op}) }

//rvmalint:hot
func (sh *shard) postNext() {
	p := sh.posts.Next()
	p.op.post(p.ep)
}

// send hands cmd's message to the NIC; op.sent runs at the message's
// local completion, the NIC's own event.
//
//rvmalint:hot
func (ep *Endpoint) send(dst int, cmd *command, op sender) {
	s := &ep.pipeline().sends
	s.PushIn(&ep.sh.sendRings, ep.nic.Send(dst, cmd.total, cmd, s.Fn), op)
}

// sentStage is the endpoint as its send stage's handler.
type sentStage Endpoint

// Fire runs the operation whose NIC send completed locally now.
//
//rvmalint:hot
func (s *sentStage) Fire() {
	ep := (*Endpoint)(s)
	ep.pipe.sends.Pop(ep.eng.Now()).sent(ep)
}

// spill queues buf's completion behind the host-memory round trip of its
// window's spilled counter.
//
//rvmalint:hot
func (ep *Endpoint) spill(buf *Buffer) { ep.sh.spills.Add(buf) }

// spillNext completes the buffer whose counter update has come back from
// host memory, unless the window closed or moved on meanwhile.
//
//rvmalint:hot
func (sh *shard) spillNext() {
	buf := sh.spills.Next()
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
	s.Push(t, c)
	ep.eng.AtH(t, s.Fn)
}

// writeStage is the endpoint as its completion-write stage's handler.
type writeStage Endpoint

// Fire lands a completion-pointer write: the buffer is complete, its
// cell holds (head, length), and the message spans, one-shot waiters and
// the window's completion handler observe it, in that order.
//
//rvmalint:hot
func (s *writeStage) Fire() {
	ep := (*Endpoint)(s)
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
// operation still waits in a stage, its shard's idle stage arrays and
// slab chunks, and the reliable puts' reassembly state, which no packet
// of a finished run is left to hit. Call it between runs, not inside one.
func (ep *Endpoint) DropPools() {
	if p := ep.pipe; p != nil && p.sends.Len()+p.writes.Len() == 0 {
		ep.pipe = nil
	}
	ep.sh.drop()
	ep.relAsm.Reset()
}

// HeldPools names the endpoint's pipeline, if it keeps one, and its
// shard's stages that hold an array and slabs that hold a chunk: none
// once DropPools has run after a drained run.
func (ep *Endpoint) HeldPools() []string {
	var names []string
	for _, s := range []struct {
		name string
		held bool
	}{
		{"pipeline", ep.pipe != nil}, {"posts", ep.sh.posts.Held()}, {"spills", ep.sh.spills.Held()},
		{"pipeline slab", ep.sh.pipes.Held()}, {"PutOp slab", ep.sh.puts.Held()},
		{"attempt slab", ep.sh.attempts.Held()}, {"send ring slab", ep.sh.sendRings.Held()},
		{"reassembly ring slab", ep.sh.asmRings.Held()},
	} {
		if s.held {
			names = append(names, s.name)
		}
	}
	return names
}
