package rvma

import (
	"rvma/internal/fabric"
	"rvma/internal/memory"
	"rvma/internal/metrics"
	"rvma/internal/nic"
	"rvma/internal/sim"
	"rvma/internal/trace"
)

// receiver is the endpoint as its NIC's nic.Receiver: a named pointer
// type over the endpoint, so installing it allocates nothing.
type receiver Endpoint

// Receive implements nic.Receiver.
func (r *receiver) Receive(pkt *fabric.Packet) { (*Endpoint)(r).handlePacket(pkt) }

// handlePacket is the NIC-side receive path (Figure 3 of the paper): the
// nic layer has already charged per-packet receive processing and the
// single LUT lookup; this function performs translation, DMA placement,
// counter update and the completion check.
func (ep *Endpoint) handlePacket(pkt *fabric.Packet) {
	var cmd *command
	switch p := pkt.Payload.(type) {
	case *command:
		cmd = p
	case *putAttempt:
		// A placement ack's payload is the attempt whose packet drew it.
		ep.handleAck(p)
		return
	default:
		panic("rvma: foreign payload on RVMA endpoint")
	}
	switch cmd.op {
	case opPut:
		ep.handlePut(pkt, cmd)
		// The packet is spent: nothing below reads cmd again.
		if op, ok := cmd.ref.(*PutOp); ok && ep.nic.SameShard(pkt.Src) {
			op.unref()
		}
	case opNack:
		ep.handleNack(pkt, cmd)
	case opGetReq:
		ep.handleGetReq(pkt, cmd)
	case opGetReply:
		ep.handleGetReply(pkt, cmd)
	default:
		panic("rvma: unknown opcode")
	}
	if sim.DebugEnabled {
		ep.debugCheckEndpoint()
	}
}

// handlePut places one put packet. Steps follow Figure 3: (2) address
// translation via the LUT, (3-4) DMA of the payload into the active
// buffer at head+offset, then the completion check: bump the counter and,
// at threshold, (5) write the completion pointer and rotate the buffer.
func (ep *Endpoint) handlePut(pkt *fabric.Packet, cmd *command) {
	if sim.DebugEnabled {
		ep.dbg.putBytesArrived += uint64(pkt.Size)
	}
	w := ep.lut[cmd.vaddr]
	if w == nil || w.closed {
		if ep.catchAll != nil && !ep.catchAll.closed {
			ep.Stats.CatchAllHits++
			w = ep.catchAll
		} else {
			if sim.DebugEnabled {
				ep.dbg.putBytesDropped += uint64(pkt.Size)
			}
			ep.reject(pkt.Src, cmd, ErrNoWindow)
			return
		}
	}
	buf := w.Head()
	if buf == nil {
		if sim.DebugEnabled {
			ep.dbg.putBytesDropped += uint64(pkt.Size)
		}
		ep.reject(pkt.Src, cmd, ErrNoBuffer)
		return
	}

	size := pkt.Size
	off := int(pkt.Offset) // of this packet's bytes within the message
	eng := ep.eng
	key := nic.MsgKey{Src: pkt.Src, MsgID: cmd.msgID}

	// Reliable (wantAck) puts pass through the duplicate-aware assembler
	// before any placement or counting — but after every reject check, so
	// a rejected packet's bytes are never marked seen and its retransmit
	// counts fresh. Duplicates from overlapping attempts are discarded
	// here: they must not inflate counters, high-water marks or epoch-ops
	// progress, or a retransmit could falsely complete a holed buffer.
	var relDone bool
	if cmd.wantAck {
		if w.mode != Steered {
			panic("rvma: reliable put into a managed window (retransmit dedup needs offset placement)")
		}
		if cmd.msgOffset+off+size > buf.Region.Size() {
			if sim.DebugEnabled {
				ep.dbg.putBytesDropped += uint64(size)
			}
			ep.reject(pkt.Src, cmd, ErrNoBuffer)
			return
		}
		_, done, dup := ep.relAsm.Add(ep.eng.Now(), key, off, size, cmd.total)
		if dup {
			if sim.DebugEnabled {
				ep.dbg.putBytesDuplicate += uint64(size)
			}
			ep.Stats.DupPackets++
			if ep.relAsm.Done(key) {
				// Straggler of an already-placed message: the earlier ack
				// may itself have been lost, so re-ack.
				ep.sendAck(pkt.Src, cmd)
			}
			return
		}
		relDone = done
	}

	// Issue the payload DMA. The bus resource is FIFO, so the completion
	// write issued below (if any) is ordered after this data write, which
	// is the PCIe ordering guarantee the completion pointer relies on.
	// The steering decision, counter update and threshold check all happen
	// now, in NIC pipeline (packet-arrival) order — only the data DMA and
	// the completion-pointer write land later, in bus order. A hardware
	// completion unit works the same way: it cannot let a packet's bus
	// latency reorder its bookkeeping against the next packet's.
	busWait := ep.nic.Bus().Backlog(eng.Engine)
	dmaDone := ep.nic.Bus().TransferTime(eng.Engine, size)

	switch w.mode {
	case Steered:
		place := cmd.msgOffset + off
		if place+size > buf.Region.Size() {
			if sim.DebugEnabled {
				ep.dbg.putBytesDropped += uint64(size)
			}
			ep.reject(pkt.Src, cmd, ErrNoBuffer)
			return
		}
		if sim.DebugEnabled {
			ep.dbg.putBytesPlaced += uint64(size)
		}
		if ep.cfg.CarryData && cmd.data != nil {
			data := cmd.data[off : off+size]
			base := buf.Region.Base + memory.Addr(place)
			eng.At(dmaDone, func() { ep.Memory().Write(base, data) })
		}
		if end := place + size; end > buf.HighWater {
			buf.HighWater = end
		}
		if w.etype == EpochBytes {
			w.counter += int64(size)
		}

	case Managed:
		// Stream placement: append at the fill pointer, splitting the
		// packet across segment buffers when it straddles a boundary —
		// the byte-counting NIC behavior §IV-B describes for sockets
		// semantics. Completions rotate buffers mid-packet as thresholds
		// are crossed.
		remaining := size
		dataOff := off
		for remaining > 0 {
			head := w.Head()
			if head == nil {
				// Out of posted segments mid-packet: the tail is lost.
				if sim.DebugEnabled {
					ep.dbg.putBytesDropped += uint64(remaining)
				}
				ep.reject(pkt.Src, cmd, ErrNoBuffer)
				break
			}
			space := head.Region.Size() - head.Fill
			if space <= 0 {
				// A full-but-uncompleted segment means the threshold
				// exceeds the buffer size; nothing can ever complete it.
				if sim.DebugEnabled {
					ep.dbg.putBytesDropped += uint64(remaining)
				}
				ep.reject(pkt.Src, cmd, ErrNoBuffer)
				break
			}
			take := remaining
			if take > space {
				take = space
			}
			if sim.DebugEnabled {
				ep.dbg.putBytesPlaced += uint64(take)
			}
			if ep.cfg.CarryData && cmd.data != nil {
				chunk := cmd.data[dataOff : dataOff+take]
				base := head.Region.Base + memory.Addr(head.Fill)
				eng.At(dmaDone, func() { ep.Memory().Write(base, chunk) })
			}
			head.Fill += take
			if head.Fill > head.HighWater {
				head.HighWater = head.Fill
			}
			if w.etype == EpochBytes {
				w.counter += int64(take)
			}
			remaining -= take
			dataOff += take
			w.maybeComplete() // may rotate to the next segment
		}
	}

	msgDone := relDone
	if !cmd.wantAck {
		msgDone = ep.asm.Add(key, size, cmd.total)
	} else if relDone {
		ep.sendAck(pkt.Src, cmd)
	}
	if w.etype == EpochOps && msgDone {
		w.counter++
	}
	if msgDone {
		ep.Stats.PutsPlaced++
		ep.Stats.BytesPlaced += uint64(cmd.total)
		w.MessagesPlaced++
		w.BytesPlaced += uint64(cmd.total)
		// The initiator's span crosses to this node: the wire stage ends at
		// last-packet arrival, the place stage at the payload DMA; the
		// completion unit ends the span when this window's epoch completes.
		// The place mark is stamped now at its known future time instead of
		// from a scheduled event, so spans never change the event stream;
		// the completion-pointer write queues behind the payload DMA on the
		// same bus, so the marks stay monotone.
		if sp := ep.reg.Span(metrics.SpanKey{Node: pkt.Src, ID: cmd.msgID}); sp != nil {
			sp.SetNode(ep.Node())
			// Wire wait is the fabric queueing the last packet accumulated;
			// place wait is the receive-bus backlog ahead of the payload DMA.
			sp.StageWait(eng.Now(), "wire", pkt.QueueWait)
			sp.StageWait(dmaDone, "place", busWait)
			w.pendingSpans = append(w.pendingSpans, sp)
		}
	}
	if !w.hwCounter {
		ep.Stats.CounterSpills++
	}
	w.maybeComplete()
}

// reject drops a put/get and, when enabled, NACKs the initiator (§III-C:
// operations on closed mailboxes "are automatically discarded and may
// result in a NACK notification").
func (ep *Endpoint) reject(src int, cmd *command, reason error) {
	ep.Stats.Drops++
	if reason == ErrNoBuffer {
		ep.Stats.NoBuffer++
	}
	if ep.tracer != nil {
		ep.tracer.Eventf(trace.CatRVMA, "node %d reject msg %d from %d: %v",
			ep.Node(), cmd.msgID, src, reason)
	}
	if !ep.cfg.NACKEnabled {
		return
	}
	ep.Stats.Nacks++
	if op, ok := cmd.ref.(*PutOp); ok && ep.nic.SameShard(src) {
		op.refs++ // the NACK's, spent when it reaches the initiator
	}
	nack := &command{op: opNack, msgID: cmd.msgID, status: reason, ref: cmd.ref}
	ep.nic.Send(src, 0, nack)
}

// sendAck emits the NIC-generated placement ack for a reliable put. Like
// RDMA's put-ack it rides InjectControl: no host bus crossing, just the
// send pipeline and the wire. Its payload is the attempt that drew it,
// the command's back-reference, so an ack allocates nothing.
//
//rvmalint:hot
func (ep *Endpoint) sendAck(src int, cmd *command) {
	ep.Stats.AcksSent++
	ep.nic.InjectControl(src, cmd.ref)
}

// handleAck resolves the reliable put the ack's attempt belongs to, and
// reports it to the endpoint's handler. A duplicate ack (a retransmit
// raced the first one), a straggler after AbandonPut, or an ack of a put
// whose record was reused finds the put no longer live and resolves
// nothing.
//
//rvmalint:hot
func (ep *Endpoint) handleAck(at *putAttempt) {
	rp := at.live()
	if rp == nil {
		return
	}
	rp.attempt = nil
	if ep.onReliable != nil {
		ep.onReliable.ReliableAcked(rp)
	}
}

// handleNack resolves the Nack future of the operation the NACK names; a
// plain put's NACK then goes to the endpoint's NACK handler.
//
//rvmalint:hot
func (ep *Endpoint) handleNack(pkt *fabric.Packet, cmd *command) {
	eng := ep.eng
	switch op := cmd.ref.(type) {
	case *PutOp:
		// Each rejected packet of a put draws a NACK; the first resolves it.
		if !op.nack.Done() {
			// A NACKed put never completes at the target; close its span here.
			ep.reg.Span(metrics.SpanKey{Node: ep.Node(), ID: cmd.msgID}).EndNacked(eng.Now())
			op.nack.Complete(eng.Engine, cmd.status)
			if ep.onNack != nil {
				ep.onNack.Nacked(op.dst, op.cmd.total)
			}
		}
		if ep.nic.SameShard(pkt.Src) {
			op.unref()
		}
	case *putAttempt:
		// Reliable puts survive NACKs: the operation stays live (a
		// retransmit may land once the target posts a buffer); only the
		// current attempt learns of the rejection, once. Several packets
		// of one attempt can each draw a NACK, and a straggler NACK from
		// an old attempt can land after a retransmit started — both just
		// re-fire the recovery layer's bounded retry, so the guard is one
		// flag per attempt rather than attempt bookkeeping.
		if rp := op.live(); rp != nil && !rp.nacked {
			rp.nacked = true
			if ep.onReliable != nil {
				ep.onReliable.ReliableNacked(rp, cmd.status)
			}
		}
	case *GetOp:
		op.Nack.Complete(eng.Engine, cmd.status) // a get request is one packet: one NACK
	}
}

// handleGetReq serves a get: read the requested span of the active buffer
// over the bus, then stream the reply.
func (ep *Endpoint) handleGetReq(pkt *fabric.Packet, cmd *command) {
	w := ep.lut[cmd.vaddr]
	if w == nil || w.closed {
		ep.reject(pkt.Src, cmd, ErrNoWindow)
		return
	}
	buf := w.Head()
	if buf == nil || cmd.msgOffset+cmd.total > buf.Region.Size() {
		ep.reject(pkt.Src, cmd, ErrNoBuffer)
		return
	}
	ep.Stats.GetsServed++
	eng := ep.eng
	reply := &command{op: opGetReply, msgID: cmd.msgID, total: cmd.total, ref: cmd.ref}
	if ep.cfg.CarryData {
		reply.data = ep.Memory().Read(buf.Region.Base+memory.Addr(cmd.msgOffset), cmd.total)
	}
	// Bus read of the payload, then reply through the send pipeline.
	readDone := ep.nic.Bus().TransferTime(eng.Engine, cmd.total)
	src := pkt.Src
	eng.At(readDone, func() {
		ep.nic.Send(src, reply.total, reply)
	})
}

// handleGetReply assembles reply packets into the get they name and
// resolves it.
func (ep *Endpoint) handleGetReply(pkt *fabric.Packet, cmd *command) {
	op := cmd.ref.(*GetOp)
	if ep.cfg.CarryData && cmd.data != nil {
		if op.buf == nil {
			op.buf = make([]byte, cmd.total)
		}
		off := int(pkt.Offset)
		copy(op.buf[off:], cmd.data[off:off+pkt.Size])
	}
	op.got += pkt.Size
	if op.got != cmd.total {
		return
	}
	eng := ep.eng
	// Landing the fetched bytes in host memory costs one bus transfer.
	done := ep.nic.Bus().TransferTime(eng.Engine, cmd.total)
	eng.At(done, func() { op.Done.Complete(eng.Engine, op.buf) })
}
