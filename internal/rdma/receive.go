package rdma

import (
	"rvma/internal/fabric"
	"rvma/internal/memory"
	"rvma/internal/metrics"
	"rvma/internal/nic"
	"rvma/internal/trace"
)

// receiver is the endpoint as its NIC's nic.Receiver: a named pointer
// type over the endpoint, so installing it allocates nothing.
type receiver Endpoint

// Receive implements nic.Receiver.
func (r *receiver) Receive(pkt *fabric.Packet) { (*Endpoint)(r).handlePacket(pkt) }

// handlePacket is the NIC receive dispatch (per-packet processing and MR
// validation time already charged by the nic layer). A transport ACK's
// payload is the operation it acknowledges; every other packet carries its
// message's command.
func (ep *Endpoint) handlePacket(pkt *fabric.Packet) {
	var cmd *command
	switch p := pkt.Payload.(type) {
	case *command:
		cmd = p
	case *PutOp, *attempt:
		ep.handlePutAck(pkt.Src, p)
		return
	default:
		panic("rdma: foreign payload on RDMA endpoint")
	}
	switch cmd.op {
	case opRegRequest:
		ep.handleRegRequest(pkt, cmd)
	case opRegReply:
		ep.handleRegReply(cmd)
	case opPutData:
		ep.handlePutData(pkt, cmd)
	case opSend:
		ep.handleSend(pkt, cmd)
	default:
		panic("rdma: unknown opcode")
	}
	// A data or send packet is spent: nothing below reads cmd again.
	if ep.nic.SameShard(pkt.Src) {
		switch op := cmd.ref.(type) {
		case *PutOp:
			op.unref()
		case *SendOp:
			op.unref()
		}
	}
}

// handleRegRequest serves the Figure 1 handshake target side: allocate,
// register (timed), reply with the region's coordinates.
func (ep *Endpoint) handleRegRequest(pkt *fabric.Packet, cmd *command) {
	ep.Stats.Handshakes++
	if ep.tracer != nil {
		ep.tracer.Eventf(trace.CatRDMA, "node %d handshake from %d for %dB",
			ep.Node(), pkt.Src, cmd.size)
	}
	r := ep.sh.regs.New()
	r.ep, r.src, r.size = ep, pkt.Src, cmd.size
	r.reply = command{op: opRegReply, msgID: cmd.msgID, ref: cmd.ref}
	cost := ep.nic.Profile().RegistrationTime(cmd.size)
	ep.mRegMR.ObserveTime(cost)
	if ep.tracer != nil {
		ep.tracer.Eventf(trace.CatRDMA, "node %d register %dB (%v)", ep.Node(), cmd.size, cost)
	}
	ep.eng.ScheduleH(cost, r)
}

// registration is the target's side of one handshake: the timed
// registration of a region and the reply that hands it to the initiator.
// Its cost depends on the region's size, so it is not queued in a
// constant-delay stage: the record is its own event (Fire).
type registration struct {
	ep    *Endpoint
	src   int
	size  int
	reply command // the reply, which the initiator reads once it lands
}

// Fire registers the region, once the registration cost has been paid,
// and replies with its coordinates.
func (r *registration) Fire() {
	ep := r.ep
	mr := ep.sh.mrs.New()
	mr.RKey = ep.nextRKey
	mr.Region = ep.Memory().AllocIn(&mr.region, r.size)
	ep.nextRKey++
	ep.mrs = append(ep.mrs, mr)
	ep.Stats.Registrations++
	r.reply.rb = RemoteBuffer{Node: ep.Node(), RKey: mr.RKey, Addr: mr.Region.Base, Size: mr.Region.Size()}
	ep.nic.Send(r.src, 0, &r.reply)
}

// handleRegReply queues the reaping of the handshake the reply names.
func (ep *Endpoint) handleRegReply(cmd *command) {
	op := cmd.ref.(*RegOp)
	ep.regsInFlight--
	op.rb = cmd.rb
	ep.sh.regReaps.Add(op)
}

// sendAck emits the NIC-generated transport acknowledgment of the message
// cmd carried. Its payload is the initiator's operation itself.
//
//rvmalint:hot
func (ep *Endpoint) sendAck(dst int, cmd *command) {
	ep.Stats.AcksSent++
	ep.nic.InjectControl(dst, cmd.ref)
}

// handlePutAck resolves the operation a transport ACK names: the fence of
// a conservative CompleteSendRecv put, or the reliable operation of the
// attempt whose packet drew it, which goes to the endpoint's handler. A
// duplicate ack, a straggler after AbandonReliable, or an ack of an
// operation whose record was reused finds the reliable operation no
// longer live and resolves nothing.
//
//rvmalint:hot
func (ep *Endpoint) handlePutAck(src int, ref any) {
	switch op := ref.(type) {
	case *PutOp:
		op.acked(ep)
		// The fence post the ACK queued holds the op until its local
		// completion, so this reference is never the last.
		if ep.nic.SameShard(src) {
			op.unref()
		}
	case *attempt:
		if r := op.live(); r != nil {
			r.current = nil
			if ep.onReliable != nil {
				ep.onReliable.ReliableAcked(r)
			}
		}
	}
}

// handlePutData lands one put packet: validate the rkey, DMA the payload
// to the carried physical address, update byte counters, and trigger any
// completions that depended on those bytes (fences, last-byte polls).
// Bookkeeping runs in pipeline order; data lands at DMA time.
func (ep *Endpoint) handlePutData(pkt *fabric.Packet, cmd *command) {
	mr := ep.RegionByKey(cmd.rkey)
	if mr == nil {
		ep.Stats.Drops++
		return
	}
	off := int(pkt.Offset) // of this packet's bytes within the message
	place := cmd.msgOffset + off
	if place+pkt.Size > mr.Region.Size() {
		ep.Stats.Drops++
		return
	}

	eng := ep.eng
	size := pkt.Size
	key := nic.MsgKey{Src: pkt.Src, MsgID: cmd.msgID}

	// Reliable puts dedup before any byte accounting: a retransmitted
	// packet's bytes were already credited to the fence ledger and the
	// region, and crediting them again would falsely satisfy a fence whose
	// data still has holes.
	var relDone bool
	if cmd.reliable {
		_, done, dup := ep.relAsm.Add(ep.eng.Now(), key, off, size, cmd.total)
		if dup {
			ep.Stats.DupPackets++
			if ep.relAsm.Done(key) {
				// The earlier ack may itself have been lost: re-ack.
				ep.sendAck(pkt.Src, cmd)
			}
			return
		}
		relDone = done
	}

	busWait := ep.nic.Bus().Backlog(eng.Engine)
	dmaDone := ep.nic.Bus().TransferTime(eng.Engine, size)
	if ep.cfg.CarryData && cmd.data != nil {
		data := cmd.data[off : off+size]
		base := mr.Region.Base + memory.Addr(place)
		eng.At(dmaDone, func() { ep.Memory().Write(base, data) })
	}

	mr.BytesReceived += size
	p := ep.peer(pkt.Src)
	p.recv += uint64(size)
	msgDone := relDone
	if !cmd.reliable {
		msgDone = ep.asm.Add(key, size, cmd.total)
	}
	if msgDone {
		ep.Stats.PutsPlaced++
		ep.Stats.BytesPlaced += uint64(cmd.total)
		// The initiator's span crosses to this node; the transfer is done
		// when the payload DMA lands (trailing-send cost shows up in the
		// standalone fence_hold histogram). The place mark and the span end
		// are stamped now at the known DMA completion time instead of from
		// a scheduled event, so spans never change the event stream.
		if sp := ep.reg.Span(metrics.SpanKey{Node: pkt.Src, ID: cmd.msgID}); sp != nil {
			sp.SetNode(ep.Node())
			// Wire wait is the fabric queueing the last packet accumulated;
			// place wait is the receive-bus backlog ahead of the payload DMA.
			sp.StageWait(eng.Now(), "wire", pkt.QueueWait)
			sp.StageWait(dmaDone, "place", busWait)
			sp.End(dmaDone)
		}
		if cmd.wantAck {
			// Transport-level acknowledgment, generated by the NIC itself
			// once every byte of the message has arrived.
			ep.sendAck(pkt.Src, cmd)
		}
	}

	// Last-byte polls: fire when the packet covering the watched span's
	// final byte arrives — whether or not earlier bytes have (that is the
	// point: under adaptive routing this can be premature). Observation
	// follows at the next poll tick plus host processing.
	if len(ep.lastByteWaits) > 0 {
		remaining := ep.lastByteWaits[:0]
		for _, w := range ep.lastByteWaits {
			if !w.fired && w.mr == mr && place <= w.length-1 && w.length-1 < place+size {
				w.fired = true
				ep.dma(dmaDone, completion{f: w.Done, v: mr.BytesReceived >= w.length})
			} else if !w.fired {
				remaining = append(remaining, w)
			}
		}
		clear(ep.lastByteWaits[len(remaining):])
		ep.lastByteWaits = remaining
	}

	// Cumulative-byte waits (streamed last-byte polling).
	if len(p.waits) > 0 {
		remaining := p.waits[:0]
		for _, w := range p.waits {
			if p.recv >= w.target {
				ep.dma(dmaDone, completion{f: w.done})
			} else {
				remaining = append(remaining, w)
			}
		}
		clear(p.waits[len(remaining):])
		p.waits = remaining
	}

	// Newly landed bytes may release held fences.
	ep.matchSends(pkt.Src, p, &p.qps[FenceQP])
}

// handleSend receives a (possibly fenced) two-sided send.
//
//rvmalint:hot
func (ep *Endpoint) handleSend(pkt *fabric.Packet, cmd *command) {
	key := nic.MsgKey{Src: pkt.Src, MsgID: cmd.msgID}
	if cmd.reliable {
		// Reliable sends dedup by offset and ack on full reassembly; a
		// duplicate completion must not enqueue the send a second time.
		_, done, dup := ep.relAsm.Add(ep.eng.Now(), key, int(pkt.Offset), pkt.Size, cmd.total)
		if dup {
			ep.Stats.DupPackets++
			if ep.relAsm.Done(key) {
				ep.sendAck(pkt.Src, cmd)
			}
			return
		}
		if !done {
			return
		}
		ep.sendAck(pkt.Src, cmd)
		ep.enqueueSend(pkt.Src, cmd.qp, cmd.fenceBytes, cmd.total)
		return
	}
	// Multi-packet sends reassemble first.
	if !ep.asm.Add(key, pkt.Size, cmd.total) {
		return
	}
	ep.enqueueSend(pkt.Src, cmd.qp, cmd.fenceBytes, cmd.total)
}

// enqueueSend queues a deliverable-or-fenced send and attempts matching.
//
//rvmalint:hot
func (ep *Endpoint) enqueueSend(src, qp int, fence uint64, size int) {
	p := ep.peer(src)
	q := p.qp(qp)
	q.sends.PushIn(&ep.sh.sendRings, pendingSend{fenceBytes: fence, size: size, enq: ep.eng.Now()})
	ep.matchSends(src, p, q)
}

// matchSends delivers the sends queued on q, one of src's queue pairs,
// whose fences are satisfied to its posted receives, in FIFO order. A send
// whose fence bytes have not all landed is held — this is the transport
// resequencing that makes send/recv-after-put correct on unordered
// networks.
//
//rvmalint:hot
func (ep *Endpoint) matchSends(src int, p *peer, q *queuePair) {
	for q.sends.Len() > 0 && q.recvs.Len() > 0 {
		s := q.sends.Front()
		if p.recv < s.fenceBytes {
			ep.Stats.FencesHeld++
			if ep.tracer != nil {
				//rvmalint:allow hotalloc -- tracer-only branch; a traced run is a debugging run
				ep.tracer.Eventf(trace.CatRDMA, "node %d fence held: %d/%d bytes from %d",
					ep.Node(), p.recv, s.fenceBytes, src)
			}
			return // strict per-QP ordering: later sends must wait too
		}
		sent := q.sends.Pop()
		recv := q.recvs.Pop()
		ep.Stats.SendsDelivered++
		ep.mFenceHold.ObserveTime(ep.eng.Now() - sent.enq)
		// The NIC DMAs a CQ entry into the host completion queue; software
		// then observes it at its polling cadence and pays completion
		// processing. This CQE bus crossing is the cost RVMA's completion
		// pointer shares, but RVMA pays no trailing network message.
		ep.dma(ep.nic.Bus().TransferTime(ep.eng.Engine, 32), completion{recv: recv, size: sent.size})
	}
}
