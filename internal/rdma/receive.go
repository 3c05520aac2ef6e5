package rdma

import (
	"rvma/internal/fabric"
	"rvma/internal/memory"
	"rvma/internal/metrics"
	"rvma/internal/nic"
	"rvma/internal/trace"
)

// handlePacket is the NIC receive dispatch (per-packet processing and MR
// validation time already charged by the nic layer).
func (ep *Endpoint) handlePacket(pkt *fabric.Packet) {
	cmd, ok := pkt.Payload.(*command)
	if !ok {
		panic("rdma: foreign payload on RDMA endpoint")
	}
	switch cmd.op {
	case opRegRequest:
		ep.handleRegRequest(pkt, cmd)
	case opRegReply:
		ep.handleRegReply(cmd)
	case opPutData:
		ep.handlePutData(pkt, cmd)
	case opPutAck:
		if rel, ok := ep.pendingRel[cmd.msgID]; ok {
			delete(ep.pendingRel, cmd.msgID)
			if at := rel.currentAttempt(); !at.Acked.Done() {
				at.Acked.Complete(ep.Engine(), nil)
			}
		} else if fn, ok := ep.pendingAcks[cmd.msgID]; ok {
			delete(ep.pendingAcks, cmd.msgID)
			fn()
		}
	case opSend:
		ep.handleSend(pkt, cmd)
	case opReadReq:
		ep.handleReadReq(pkt, cmd)
	case opReadReply:
		ep.handleReadReply(pkt, cmd)
	default:
		panic("rdma: unknown opcode")
	}
}

// handleRegRequest serves the Figure 1 handshake target side: allocate,
// register (timed), reply with the region's coordinates.
func (ep *Endpoint) handleRegRequest(pkt *fabric.Packet, cmd *command) {
	ep.Stats.Handshakes++
	ep.mHandshakes.Add(1)
	if ep.tracer != nil {
		ep.tracer.Eventf(trace.CatRDMA, "node %d handshake from %d for %dB",
			ep.Node(), pkt.Src, cmd.size)
	}
	src := pkt.Src
	msgID := cmd.msgID
	f := ep.RegisterBuffer(cmd.size)
	f.OnComplete(func() {
		mr := f.Value().(*MemoryRegion)
		rb := RemoteBuffer{Node: ep.Node(), RKey: mr.RKey, Addr: mr.Region.Base, Size: mr.Region.Size()}
		ep.nic.SendMessage(src, 0, func(off, n int) any {
			return &command{op: opRegReply, msgID: msgID, rb: rb}
		})
	})
}

// handleRegReply resolves the initiator's handshake.
func (ep *Endpoint) handleRegReply(cmd *command) {
	op, ok := ep.pendingRegs[cmd.msgID]
	if !ok {
		return
	}
	delete(ep.pendingRegs, cmd.msgID)
	eng := ep.eng
	eng.Schedule(ep.nic.Profile().CQProcessOverhead, func() {
		op.Done.Complete(eng.Engine, cmd.rb)
	})
}

// handlePutData lands one put packet: validate the rkey, DMA the payload
// to the carried physical address, update byte counters, and trigger any
// completions that depended on those bytes (fences, last-byte polls,
// immediates). Bookkeeping runs in pipeline order; data lands at DMA time.
func (ep *Endpoint) handlePutData(pkt *fabric.Packet, cmd *command) {
	mr := ep.mrs[cmd.rkey]
	if mr == nil || mr.revoked {
		ep.Stats.Drops++
		ep.mDrops.Add(1)
		return
	}
	off := int(pkt.Offset) // of this packet's bytes within the message
	place := cmd.msgOffset + off
	if place+pkt.Size > mr.Region.Size() {
		ep.Stats.Drops++
		ep.mDrops.Add(1)
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
		_, done, dup := ep.relAsm.Add(key, off, size, cmd.total)
		if dup {
			ep.Stats.DupPackets++
			if ep.relAsm.Done(key) {
				// The earlier ack may itself have been lost: re-ack.
				ep.Stats.AcksSent++
				ep.mAcks.Add(1)
				ep.nic.InjectControl(pkt.Src, &command{op: opPutAck, msgID: cmd.msgID})
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
	ep.recvBytes[pkt.Src] += uint64(size)
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
			ep.Stats.AcksSent++
			ep.mAcks.Add(1)
			ep.nic.InjectControl(pkt.Src, &command{op: opPutAck, msgID: cmd.msgID})
		}
	}

	// Last-byte polls: fire when the packet covering the watched span's
	// final byte arrives — whether or not earlier bytes have (that is the
	// point: under adaptive routing this can be premature).
	if len(ep.lastByteWaits) > 0 {
		remaining := ep.lastByteWaits[:0]
		for _, w := range ep.lastByteWaits {
			if !w.fired && w.mr == mr && place <= w.length-1 && w.length-1 < place+size {
				w.fired = true
				complete := mr.BytesReceived >= w.length
				prof := ep.nic.Profile()
				// Observation at the next poll tick plus host processing.
				eng.At(dmaDone, func() {
					eng.Schedule(prof.PollInterval+prof.HostCompletionOverhead, func() {
						w.Done.Complete(eng.Engine, complete)
					})
				})
			} else if !w.fired {
				remaining = append(remaining, w)
			}
		}
		ep.lastByteWaits = remaining
	}

	// Cumulative-byte waits (streamed last-byte polling).
	if len(ep.byteWaits) > 0 {
		prof := ep.nic.Profile()
		remaining := ep.byteWaits[:0]
		for _, w := range ep.byteWaits {
			if w.src == pkt.Src && ep.recvBytes[w.src] >= w.target {
				done := w.done
				eng.At(dmaDone, func() {
					eng.Schedule(prof.PollInterval+prof.HostCompletionOverhead, func() {
						done.Complete(eng.Engine, nil)
					})
				})
			} else {
				remaining = append(remaining, w)
			}
		}
		ep.byteWaits = remaining
	}

	// Write-with-immediate: single packet, generates a CQE consuming a
	// posted receive, like a zero-copy send.
	if cmd.imm != nil {
		ep.enqueueSend(pkt.Src, FenceQP, 0, size, cmd.imm)
	}

	// Newly landed bytes may release held fences.
	ep.matchSends(qpKey{src: pkt.Src, qp: FenceQP})
}

// handleSend receives a (possibly fenced) two-sided send.
func (ep *Endpoint) handleSend(pkt *fabric.Packet, cmd *command) {
	key := nic.MsgKey{Src: pkt.Src, MsgID: cmd.msgID}
	if cmd.reliable {
		// Reliable sends dedup by offset and ack on full reassembly; a
		// duplicate completion must not enqueue the send a second time.
		_, done, dup := ep.relAsm.Add(key, int(pkt.Offset), pkt.Size, cmd.total)
		if dup {
			ep.Stats.DupPackets++
			if ep.relAsm.Done(key) {
				ep.Stats.AcksSent++
				ep.mAcks.Add(1)
				ep.nic.InjectControl(pkt.Src, &command{op: opPutAck, msgID: cmd.msgID})
			}
			return
		}
		if !done {
			return
		}
		ep.Stats.AcksSent++
		ep.mAcks.Add(1)
		ep.nic.InjectControl(pkt.Src, &command{op: opPutAck, msgID: cmd.msgID})
		ep.enqueueSend(pkt.Src, cmd.qp, cmd.fenceBytes, cmd.total, nil)
		return
	}
	// Multi-packet sends reassemble first.
	if !ep.asm.Add(key, pkt.Size, cmd.total) {
		return
	}
	ep.enqueueSend(pkt.Src, cmd.qp, cmd.fenceBytes, cmd.total, nil)
}

// enqueueSend queues a deliverable-or-fenced send and attempts matching.
func (ep *Endpoint) enqueueSend(src, qp int, fence uint64, size int, imm *immediateInfo) {
	k := qpKey{src: src, qp: qp}
	ep.pendingSends[k] = append(ep.pendingSends[k], &pendingSend{
		src: src, fenceBytes: fence, size: size, imm: imm, enq: ep.Engine().Now(),
	})
	ep.matchSends(k)
}

// popFront drops q's head by shifting the rest down in place, so later
// appends reuse the queue's capacity instead of reallocating it as q[1:]
// would once the slice's start walked off its backing array.
func popFront[T any](q []*T) []*T {
	copy(q, q[1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

// matchSends delivers queued sends from src whose fences are satisfied to
// posted receives, in FIFO order per queue pair. A send whose fence bytes
// have not all landed is held — this is the transport resequencing that
// makes send/recv-after-put correct on unordered networks.
func (ep *Endpoint) matchSends(k qpKey) {
	eng := ep.eng
	prof := ep.nic.Profile()
	for len(ep.pendingSends[k]) > 0 && len(ep.recvQueues[k]) > 0 {
		s := ep.pendingSends[k][0]
		if ep.recvBytes[s.src] < s.fenceBytes {
			ep.Stats.FencesHeld++
			ep.mFencesHeld.Add(1)
			if ep.tracer != nil {
				ep.tracer.Eventf(trace.CatRDMA, "node %d fence held: %d/%d bytes from %d",
					ep.Node(), ep.recvBytes[s.src], s.fenceBytes, s.src)
			}
			return // strict per-QP ordering: later sends must wait too
		}
		ep.pendingSends[k] = popFront(ep.pendingSends[k])
		recv := ep.recvQueues[k][0]
		ep.recvQueues[k] = popFront(ep.recvQueues[k])
		ep.Stats.SendsDelivered++
		ep.mFenceHold.ObserveTime(eng.Now() - s.enq)
		size := s.size
		// The NIC DMAs a CQ entry into the host completion queue; software
		// then observes it at its polling cadence and pays completion
		// processing. This CQE bus crossing is the cost RVMA's completion
		// pointer shares, but RVMA pays no trailing network message.
		cqeDone := ep.nic.Bus().TransferTime(eng.Engine, 32)
		eng.At(cqeDone, func() {
			eng.Schedule(prof.PollInterval+prof.CQProcessOverhead, func() {
				recv.Done.Complete(eng.Engine, size)
			})
		})
	}
}

// handleReadReq serves an RDMA read: bus-read the span, stream it back.
func (ep *Endpoint) handleReadReq(pkt *fabric.Packet, cmd *command) {
	mr := ep.mrs[cmd.rkey]
	if mr == nil || mr.revoked || cmd.msgOffset+cmd.size > mr.Region.Size() {
		ep.Stats.Drops++
		return
	}
	ep.Stats.ReadsServed++
	eng := ep.eng
	reply := &command{op: opReadReply, msgID: cmd.msgID, total: cmd.size}
	if ep.cfg.CarryData {
		reply.data = ep.Memory().Read(mr.Region.Base+memory.Addr(cmd.msgOffset), cmd.size)
	}
	readDone := ep.nic.Bus().TransferTime(eng.Engine, cmd.size)
	src := pkt.Src
	eng.At(readDone, func() {
		ep.nic.SendMessage(src, reply.total, func(int, int) any { return reply })
	})
}

// handleReadReply assembles the read data at the initiator.
func (ep *Endpoint) handleReadReply(pkt *fabric.Packet, cmd *command) {
	op, ok := ep.pendingReads[cmd.msgID]
	if !ok {
		return
	}
	if ep.cfg.CarryData && cmd.data != nil {
		buf := ep.readBuf[cmd.msgID]
		if buf == nil {
			buf = make([]byte, cmd.total)
			ep.readBuf[cmd.msgID] = buf
		}
		off := int(pkt.Offset)
		copy(buf[off:], cmd.data[off:off+pkt.Size])
	}
	if ep.readAsm.Add(nic.MsgKey{Src: pkt.Src, MsgID: cmd.msgID}, pkt.Size, cmd.total) {
		eng := ep.eng
		data := ep.readBuf[cmd.msgID]
		delete(ep.readBuf, cmd.msgID)
		delete(ep.pendingReads, cmd.msgID)
		done := ep.nic.Bus().TransferTime(eng.Engine, cmd.total)
		eng.At(done, func() { op.Done.Complete(eng.Engine, data) })
	}
}
