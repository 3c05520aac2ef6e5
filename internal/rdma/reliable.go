package rdma

import (
	"fmt"

	"rvma/internal/metrics"
	"rvma/internal/sim"
)

// Reliable operations: the sender-side handles the recovery layer drives.
// RDMA recovery rides the protocol's existing acknowledgment machinery —
// the same NIC-generated opPutAck a non-pipelined fence waits for — so the
// comparison with RVMA stays fair: both transports detect loss by timeout
// on an ack future and retransmit with the same backoff policy, and each
// pays only its own protocol's wire costs. Retransmits reuse the message
// id, and the target deduplicates packets by offset, so an attempt's
// stragglers can never double-count bytes, falsely satisfy a fence, or
// deliver one send twice.

// Attempt is one wire attempt of a reliable operation.
type Attempt struct {
	// Local completes when the attempt's last packet reached the fabric.
	Local *sim.Future
	// Acked completes when the target acknowledged the full message (any
	// attempt's packets may have contributed).
	Acked *sim.Future

	local, acked sim.Future    // what the exported fields point at
	cmd          command       // the wire command every packet of the attempt carries
	op           *Reliable     // the operation the attempt belongs to
	sp           *metrics.Span // a put's span, nil for a send or with spans off
	txWait       sim.Time      // NIC backlog when the attempt was posted (span nic_tx wait)
}

// Reliable is an acked put or two-sided send under recovery-layer
// control. Every attempt sends the first attempt's command again, message
// id and fence included. The target's ack names the operation and
// resolves its current attempt.
type Reliable struct {
	dst     int
	attempt *Attempt // nil once abandoned
}

// live returns the attempt an ack resolves: the current one, or nil once
// the operation was acked or abandoned.
func (op *Reliable) live() *Attempt {
	if at := op.attempt; at != nil && !at.Acked.Done() {
		return at
	}
	return nil
}

// PutNReliable initiates an acked put (timing-only payload, like PutN) and
// returns the operation handle plus its first attempt. Unlike PutN with
// CompleteSendRecv it posts no fence send — a transport that wants fence
// semantics issues its own (reliable) send after the ack.
func (ep *Endpoint) PutNReliable(rb RemoteBuffer, offset, size int) (*Reliable, *Attempt) {
	if offset < 0 || size < 0 || offset+size > rb.Size {
		panic(fmt.Sprintf("rdma: put [%d,%d) exceeds remote buffer of %d", offset, offset+size, rb.Size))
	}
	op := &Reliable{dst: rb.Node}
	cmd := command{
		op: opPutData, wantAck: true, reliable: true, rkey: rb.RKey, msgID: ep.nextMsgID, ref: op,
		msgOffset: offset, total: size,
	}
	ep.nextMsgID++
	// Fence accounting counts the operation once: a retransmit re-sends
	// bytes the fence ledger already includes, and the target's dedup
	// keeps the receive side consistent with that.
	ep.peer(rb.Node).sent += uint64(size)
	sp := ep.reg.BeginSpan(ep.Engine().Now(), metrics.SpanKey{Node: ep.Node(), ID: cmd.msgID}, "rdma.put", ep.Node())
	return op, ep.sendAttempt(op, cmd, sp)
}

// SendReliable issues an acked send. The ack fires when the target's NIC
// has fully reassembled the message (transport-level receipt), not when
// an application receive consumes it. Fence-QP sends capture the fence
// ledger once, at issue time, and every retransmit carries that same
// fence — the retransmitted send must wait for exactly the bytes the
// original did.
func (ep *Endpoint) SendReliable(dst, qp, size int) (*Reliable, *Attempt) {
	op := &Reliable{dst: dst}
	cmd := command{op: opSend, reliable: true, msgID: ep.nextMsgID, ref: op, qp: qp, total: size}
	ep.nextMsgID++
	if qp == FenceQP {
		cmd.fenceBytes = ep.sentTo(dst)
	}
	return op, ep.sendAttempt(op, cmd, nil)
}

// Retransmit re-sends a reliable operation that is still unacked, reusing
// its message id, and returns the fresh attempt. A put's attempt rides the
// message's existing span with an incremented attempt tag, so
// retransmitted operations never produce orphan spans. Retransmitting an
// operation that was acked or abandoned panics.
func (ep *Endpoint) Retransmit(op *Reliable) *Attempt {
	at := op.live()
	if at == nil {
		panic("rdma: retransmit of a reliable operation that was acked or abandoned")
	}
	sp := ep.reg.Span(metrics.SpanKey{Node: ep.Node(), ID: at.cmd.msgID}) // nil for a send
	sp.NextAttempt(ep.Engine().Now())
	return ep.sendAttempt(op, at.cmd, sp)
}

// AbandonReliable drops a reliable operation the recovery layer gave up
// on, so a straggler ack cannot resolve a retired handle. A put's span (if
// still open) closes with status "abandoned" instead of leaking.
func (ep *Endpoint) AbandonReliable(op *Reliable) {
	at := op.attempt
	if at == nil {
		return
	}
	op.attempt = nil
	ep.reg.Span(metrics.SpanKey{Node: ep.Node(), ID: at.cmd.msgID}).EndAbandoned(ep.Engine().Now())
}

// sendAttempt issues one wire attempt of op carrying cmd, staging the
// put's span (sp, nil for a send).
func (ep *Endpoint) sendAttempt(op *Reliable, cmd command, sp *metrics.Span) *Attempt {
	if cmd.op == opPutData {
		ep.Stats.PutsInitiated++
	}
	at := &Attempt{cmd: cmd, op: op, sp: sp}
	at.Local, at.Acked = &at.local, &at.acked
	op.attempt = at
	ep.post(at)
	return at
}

//rvmalint:hot
func (at *Attempt) post(ep *Endpoint) {
	at.sp.Stage(ep.eng.Now(), "host_post")
	at.txWait = ep.nic.SendBacklog() + ep.nic.DMABacklog()
	ep.send(at.op.dst, at.cmd.total, &at.cmd, at)
}

//rvmalint:hot
func (at *Attempt) sent(ep *Endpoint) {
	at.sp.StageWait(ep.eng.Now(), "nic_tx", at.txWait)
	at.Local.Complete(ep.eng.Engine, nil)
}
