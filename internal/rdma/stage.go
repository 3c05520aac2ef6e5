package rdma

import "rvma/internal/sim"

// The endpoint's pipeline stages are sim.Stage values: each holds the
// operations waiting for its next event, in firing order, behind one
// callback. Each callback is bound on its stage's first use, not when the
// endpoint is built, as rvma's pipeline does: a cluster of 9,702 endpoints
// should not make six closures for each, most of which a node never uses.

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

// DropPools releases the arrays of the endpoint's idle stages and its
// spare receives and byte waits, which are sized by the run's peak in
// flight, and the reliable operations' reassembly state, which no packet
// of a finished run is left to hit. Call it between runs, not inside one.
func (ep *Endpoint) DropPools() {
	ep.spare = nil
	ep.relAsm.Reset()
	ep.posts.Drop()
	ep.reaps.Drop()
	ep.sends.Drop()
	ep.dmas.Drop()
	ep.cqPolls.Drop()
	ep.bytePolls.Drop()
}

// post queues op behind the host's post overhead.
//
//rvmalint:hot
func (ep *Endpoint) post(op poster) {
	if ep.posts.Fn == nil {
		ep.posts.Fn = ep.postNext
	}
	d := ep.nic.Profile().HostPostOverhead
	ep.posts.Push(ep.eng.Now()+d, op)
	ep.eng.Schedule(d, ep.posts.Fn)
}

//rvmalint:hot
func (ep *Endpoint) postNext() { ep.posts.Pop(ep.eng.Now()).post(ep) }

// reap queues a conservative put's fence post behind the poll, CQ
// processing and post overheads that follow its transport ACK.
//
//rvmalint:hot
func (ep *Endpoint) reap(f *putFence) {
	if ep.reaps.Fn == nil {
		ep.reaps.Fn = ep.reapNext
	}
	prof := ep.nic.Profile()
	d := prof.PollInterval + prof.CQProcessOverhead + prof.HostPostOverhead
	ep.reaps.Push(ep.eng.Now()+d, f)
	ep.eng.Schedule(d, ep.reaps.Fn)
}

//rvmalint:hot
func (ep *Endpoint) reapNext() { ep.reaps.Pop(ep.eng.Now()).post(ep) }

// send hands op's message to the NIC; op.sent runs at the message's local
// completion, the NIC's own event.
//
//rvmalint:hot
func (ep *Endpoint) send(dst, size int, cmd *command, op sender) {
	if ep.sends.Fn == nil {
		ep.sends.Fn = ep.sentNext
	}
	at := ep.nic.SendMessage(dst, size, cmd.payload, ep.sends.Fn)
	ep.sends.Push(at, op)
}

//rvmalint:hot
func (ep *Endpoint) sentNext() { ep.sends.Pop(ep.eng.Now()).sent(ep) }

// dma queues c behind a bus write that lands at t.
//
//rvmalint:hot
func (ep *Endpoint) dma(t sim.Time, c completion) {
	if ep.dmas.Fn == nil {
		ep.dmas.Fn = ep.dmaNext
	}
	ep.dmas.Push(t, c)
	ep.eng.At(t, ep.dmas.Fn)
}

// dmaNext passes a landed write's completion on to the host's poll.
//
//rvmalint:hot
func (ep *Endpoint) dmaNext() {
	c := ep.dmas.Pop(ep.eng.Now())
	prof := ep.nic.Profile()
	if c.cq {
		if ep.cqPolls.Fn == nil {
			ep.cqPolls.Fn = ep.cqPollNext
		}
		d := prof.PollInterval + prof.CQProcessOverhead
		ep.cqPolls.Push(ep.eng.Now()+d, c)
		ep.eng.Schedule(d, ep.cqPolls.Fn)
		return
	}
	ep.pollByte(c)
}

// pollByte queues c behind the poll that observes a landed byte.
//
//rvmalint:hot
func (ep *Endpoint) pollByte(c completion) {
	if ep.bytePolls.Fn == nil {
		ep.bytePolls.Fn = ep.bytePollNext
	}
	prof := ep.nic.Profile()
	d := prof.PollInterval + prof.HostCompletionOverhead
	ep.bytePolls.Push(ep.eng.Now()+d, c)
	ep.eng.Schedule(d, ep.bytePolls.Fn)
}

//rvmalint:hot
func (ep *Endpoint) cqPollNext() {
	c := ep.cqPolls.Pop(ep.eng.Now())
	c.f.Complete(ep.eng.Engine, c.v)
}

//rvmalint:hot
func (ep *Endpoint) bytePollNext() {
	c := ep.bytePolls.Pop(ep.eng.Now())
	c.f.Complete(ep.eng.Engine, c.v)
}
