package rdma

import (
	"fmt"

	"rvma/internal/nic"
	"rvma/internal/sim"
)

// shard is what the endpoints on one engine share: the pipeline stages
// whose delay is a host constant, and the slabs their records are carved
// from. A cluster makes one per shard (InitEndpoints), so placing 9,702
// endpoints binds five stage callbacks per shard, not per node, and the
// per-peer, per-handshake and per-operation records and the first rings
// of the endpoints' small queues come a chunk at a time. A standalone
// endpoint (NewEndpoint) has a shard of its own.
//
// A constant-delay stage serves every endpoint of its engine: every entry
// waits the same time on the same clock, so entries fire in the order
// they were queued, and each event is the one a per-endpoint stage would
// have scheduled (sim.DelayStage). The stages that follow a per-NIC
// resource, the NIC send pipe and the bus, stay per endpoint.
type shard struct {
	eng  *sim.Engine
	prof nic.Profile // the host overheads every endpoint on the shard shares

	posts     sim.DelayStage[posting]    // host post overhead, then the NIC send
	reaps     sim.DelayStage[*putFence]  // a conservative fence's ACK reaped, then its post
	regReaps  sim.DelayStage[*RegOp]     // a handshake reply's CQ processing
	cqPolls   sim.DelayStage[completion] // the poll that reaps a CQ entry
	bytePolls sim.DelayStage[completion] // the poll that observes a landed byte

	regOps  sim.Slab[RegOp]
	regs    sim.Slab[registration]
	mrs     sim.Slab[MemoryRegion]
	puts    sim.Slab[PutOp]
	sendOps sim.Slab[SendOp]
	recvs   sim.Slab[RecvOp]
	peers   sim.Slab[peer]
	refs    sim.Slab[sim.TableEntry[peer]]

	attempts sim.Slab[attempt] // reliable operations' attempts, never reused

	// The first rings of the queue pairs, the endpoints' send and DMA
	// stages and their reassembly queues (sim.FIFO.PushIn): most queues
	// never hold more than a few entries.
	recvRings sim.Slab[*RecvOp]
	sendRings sim.Slab[pendingSend]
	sentRings sim.StageRings[sender]
	dmaRings  sim.StageRings[completion]
	asmRings  nic.AssemblerRings
}

// posting is an operation waiting out the host's post overhead, and the
// endpoint that posted it.
type posting struct {
	ep *Endpoint
	op poster
}

// newShard makes the shared state of the endpoints on n's engine, with
// n's host overheads as its stages' delays.
func newShard(n *nic.NIC) *shard {
	sh := &shard{eng: n.Engine(), prof: n.Profile()}
	eng, p := n.Engine().Tag("rdma"), &sh.prof
	sh.posts.Init(eng, p.HostPostOverhead, sim.Func(sh.postNext))
	sh.reaps.Init(eng, p.PollInterval+p.CQProcessOverhead+p.HostPostOverhead, sim.Func(sh.reapNext))
	sh.regReaps.Init(eng, p.CQProcessOverhead, sim.Func(sh.regReapNext))
	sh.cqPolls.Init(eng, p.PollInterval+p.CQProcessOverhead, sim.Func(sh.cqPollNext))
	sh.bytePolls.Init(eng, p.PollInterval+p.HostCompletionOverhead, sim.Func(sh.bytePollNext))
	return sh
}

// check panics unless n's profile has the host overheads the shard's
// stages were built with: one stage cannot hold two delays.
func (sh *shard) check(n *nic.NIC) {
	p := n.Profile()
	for _, f := range []struct {
		name      string
		have, got sim.Time
	}{
		{"HostPostOverhead", sh.prof.HostPostOverhead, p.HostPostOverhead},
		{"PollInterval", sh.prof.PollInterval, p.PollInterval},
		{"CQProcessOverhead", sh.prof.CQProcessOverhead, p.CQProcessOverhead},
		{"HostCompletionOverhead", sh.prof.HostCompletionOverhead, p.HostCompletionOverhead},
	} {
		if f.have != f.got {
			panic(fmt.Sprintf("rdma: node %d's NIC has %s %v, the other endpoints on its engine %v: endpoints sharing an engine share its stages",
				n.Node(), f.name, f.got, f.have))
		}
	}
}

// drop releases the arrays of the shard's idle stages and its slabs'
// chunks, which are sized by the run's peak in flight.
func (sh *shard) drop() {
	sh.posts.Drop()
	sh.reaps.Drop()
	sh.regReaps.Drop()
	sh.cqPolls.Drop()
	sh.bytePolls.Drop()
	sh.regOps.Drop()
	sh.regs.Drop()
	sh.mrs.Drop()
	sh.puts.Drop()
	sh.sendOps.Drop()
	sh.recvs.Drop()
	sh.peers.Drop()
	sh.refs.Drop()
	sh.attempts.Drop()
	sh.recvRings.Drop()
	sh.sendRings.Drop()
	sh.sentRings.Drop()
	sh.dmaRings.Drop()
	sh.asmRings.Drop()
}

// held appends the names of the shard's stages that hold an array and of
// its slabs that hold a chunk.
func (sh *shard) held(names []string) []string {
	for _, s := range []struct {
		name string
		held bool
	}{
		{"posts", sh.posts.Held()}, {"reaps", sh.reaps.Held()}, {"regReaps", sh.regReaps.Held()},
		{"cqPolls", sh.cqPolls.Held()}, {"bytePolls", sh.bytePolls.Held()},
		{"RegOp slab", sh.regOps.Held()}, {"registration slab", sh.regs.Held()},
		{"MemoryRegion slab", sh.mrs.Held()}, {"PutOp slab", sh.puts.Held()},
		{"SendOp slab", sh.sendOps.Held()}, {"RecvOp slab", sh.recvs.Held()},
		{"peer slab", sh.peers.Held()}, {"peer table slab", sh.refs.Held()},
		{"attempt slab", sh.attempts.Held()},
		{"receive ring slab", sh.recvRings.Held()}, {"send ring slab", sh.sendRings.Held()},
		{"sent stage ring slab", sh.sentRings.Held()}, {"DMA stage ring slab", sh.dmaRings.Held()},
		{"reassembly ring slab", sh.asmRings.Held()},
	} {
		if s.held {
			names = append(names, s.name)
		}
	}
	return names
}

// poster is an operation waiting out the host's post overhead before the
// NIC send it posts.
type poster interface{ post(ep *Endpoint) }

// sender is an operation whose NIC send's local completion it awaits.
type sender interface{ sent(ep *Endpoint) }

// completion is what the host observes once a bus write lands, then a
// poll hop: a CQ entry (PollInterval + CQProcessOverhead), which
// completes its receive with the send's size, or a polled byte
// (PollInterval + HostCompletionOverhead), which resolves a future.
type completion struct {
	f    *sim.Future // a polled byte's future
	v    any         // the value f resolves with
	recv *RecvOp     // a CQ entry's receive, nil for a polled byte
	size int         // a CQ entry's send size
}

// DropPools releases the arrays of the endpoint's idle stages and of its
// shard's, its spare receives and byte waits, the free ops and the
// shard's slab chunks, which are sized by the run's peak in flight, and
// the reliable operations' reassembly state, which no packet of a
// finished run is left to hit. Call it between runs, not inside one.
func (ep *Endpoint) DropPools() {
	ep.spareRecvs, ep.spareWaits, ep.sparePuts, ep.spareSends = nil, nil, nil, nil
	ep.relAsm.Reset()
	ep.sends.Drop()
	ep.dmas.Drop()
	ep.sh.drop()
}

// HeldPools names the stages of the endpoint and of its shard that hold
// an array, and the shard's slabs that hold a chunk: none once DropPools
// has run after a drained run.
func (ep *Endpoint) HeldPools() []string {
	var names []string
	if ep.sends.Held() {
		names = append(names, "sends")
	}
	if ep.dmas.Held() {
		names = append(names, "dmas")
	}
	return ep.sh.held(names)
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

// reap queues a conservative put's fence post behind the poll, CQ
// processing and post overheads that follow its transport ACK.
//
//rvmalint:hot
func (ep *Endpoint) reap(f *putFence) { ep.sh.reaps.Add(f) }

//rvmalint:hot
func (sh *shard) reapNext() {
	f := sh.reaps.Next()
	f.post(f.ep)
}

//rvmalint:hot
func (sh *shard) regReapNext() { sh.regReaps.Next().reaped() }

// send hands op's message to the NIC; op.sent runs at the message's local
// completion, the NIC's own event.
//
//rvmalint:hot
func (ep *Endpoint) send(dst, size int, cmd *command, op sender) {
	at := ep.nic.Send(dst, size, cmd, ep.sends.Fn)
	ep.sends.PushIn(&ep.sh.sentRings, at, op)
}

// sentStage is the endpoint as its send stage's handler.
type sentStage Endpoint

// Fire runs the operation whose NIC send completed locally now.
//
//rvmalint:hot
func (s *sentStage) Fire() {
	ep := (*Endpoint)(s)
	ep.sends.Pop(ep.eng.Now()).sent(ep)
}

// dma queues c behind a bus write that lands at t.
//
//rvmalint:hot
func (ep *Endpoint) dma(t sim.Time, c completion) {
	ep.dmas.PushIn(&ep.sh.dmaRings, t, c)
	ep.eng.AtH(t, ep.dmas.Fn)
}

// dmaStage is the endpoint as its DMA stage's handler.
type dmaStage Endpoint

// Fire passes a landed write's completion on to the host's poll.
//
//rvmalint:hot
func (s *dmaStage) Fire() {
	ep := (*Endpoint)(s)
	c := ep.dmas.Pop(ep.eng.Now())
	if c.recv != nil {
		ep.sh.cqPolls.Add(c)
		return
	}
	ep.pollByte(c)
}

// pollByte queues c behind the poll that observes a landed byte.
//
//rvmalint:hot
func (ep *Endpoint) pollByte(c completion) { ep.sh.bytePolls.Add(c) }

//rvmalint:hot
func (sh *shard) cqPollNext() {
	c := sh.cqPolls.Next()
	c.recv.complete(c.size)
}

//rvmalint:hot
func (sh *shard) bytePollNext() {
	c := sh.bytePolls.Next()
	c.f.Complete(sh.eng, c.v)
}
