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

// Reliable is an acked put or two-sided send under recovery-layer
// control. Every attempt sends the first attempt's command again, message
// id and fence included.
//
// The caller owns the record and may reuse it once the operation was
// acked or abandoned and its first attempt has completed locally (Sent):
// every attempt is a record of its own, carved from the endpoint's shard
// and never reused, and the target's ack names the attempt whose packet
// drew it. An attempt names the operation's first attempt, so an ack
// resolves the operation only while the record still runs it, and then
// resolves its current attempt, whichever attempt's packets drew it. The endpoint reports the first attempt's local
// completion and the ack to its ReliableHandler.
type Reliable struct {
	// Owner is the caller's: its ReliableHandler reaches its own record
	// of the operation through it. The endpoint never reads it.
	Owner any

	first   *attempt // the operation's first attempt, which every attempt names
	current *attempt // nil once acked or abandoned
	unsent  bool     // the first attempt has not completed locally
}

// Sent reports whether op's first attempt has completed locally, which
// the handler learned of. An operation abandoned while its first attempt
// still waits at the NIC is not: its record is not the caller's to reuse
// until the endpoint has reported that local completion.
func (op *Reliable) Sent() bool { return !op.unsent }

// attempt is one wire attempt of a reliable operation. Its command is
// what every packet of the attempt carries, so the record outlives the
// attempt's packets.
type attempt struct {
	cmd    command       // the wire command; its ref is the attempt itself
	op     *Reliable     // the operation, if the record still runs it (first)
	first  *attempt      // the operation's first attempt
	sp     *metrics.Span // a put's span, nil for a send or with spans off
	txWait sim.Time      // NIC backlog when the attempt was posted (span nic_tx wait)
	dst    int
}

// ReliableHandler observes an endpoint's reliable operations on the
// initiator side. One handler, registered once, serves every one.
type ReliableHandler interface {
	// ReliableSent runs when op's first attempt has completed locally:
	// its last packet has left the NIC.
	ReliableSent(op *Reliable)
	// ReliableAcked runs at op's first ack; op is no longer live after.
	ReliableAcked(op *Reliable)
}

// SetReliableHandler installs h to observe every reliable operation. A
// nil h removes the handler.
func (ep *Endpoint) SetReliableHandler(h ReliableHandler) { ep.onReliable = h }

// PutNReliable initiates an acked put (timing-only payload, like PutN) on
// op, a record the caller owns that is not live. Unlike PutN with
// CompleteSendRecv it posts no fence send — a transport that wants fence
// semantics issues its own (reliable) send after the ack.
//
//rvmalint:hot
func (ep *Endpoint) PutNReliable(op *Reliable, rb RemoteBuffer, offset, size int) {
	if offset < 0 || size < 0 || offset+size > rb.Size {
		panic(fmt.Sprintf("rdma: put [%d,%d) exceeds remote buffer of %d", offset, offset+size, rb.Size))
	}
	at := ep.newAttempt(op, rb.Node)
	at.cmd = command{
		op: opPutData, wantAck: true, reliable: true, rkey: rb.RKey, msgID: ep.nextMsgID,
		msgOffset: offset, total: size,
	}
	ep.nextMsgID++
	// Fence accounting counts the operation once: a retransmit re-sends
	// bytes the fence ledger already includes, and the target's dedup
	// keeps the receive side consistent with that.
	ep.peer(rb.Node).sent += uint64(size)
	at.sp = ep.reg.BeginSpan(ep.eng.Now(), metrics.SpanKey{Node: ep.Node(), ID: at.cmd.msgID}, "rdma.put", ep.Node())
	ep.sendAttempt(op, at)
}

// SendReliable issues an acked send on op, a record the caller owns that
// is not live. The ack fires when the target's NIC has fully reassembled
// the message (transport-level receipt), not when an application receive
// consumes it. Fence-QP sends capture the fence ledger once, at issue
// time, and every retransmit carries that same fence — the retransmitted
// send must wait for exactly the bytes the original did.
//
//rvmalint:hot
func (ep *Endpoint) SendReliable(op *Reliable, dst, qp, size int) {
	at := ep.newAttempt(op, dst)
	at.cmd = command{op: opSend, reliable: true, msgID: ep.nextMsgID, qp: qp, total: size}
	ep.nextMsgID++
	if qp == FenceQP {
		at.cmd.fenceBytes = ep.sentTo(dst)
	}
	ep.sendAttempt(op, at)
}

// newAttempt carves the first attempt of op, to dst.
//
//rvmalint:hot
func (ep *Endpoint) newAttempt(op *Reliable, dst int) *attempt {
	if op.current != nil || op.unsent {
		panic("rdma: reliable operation started on a record that is still live or not yet sent")
	}
	at := ep.sh.attempts.New()
	at.dst, at.first = dst, at
	op.first, op.unsent = at, true
	return at
}

// Retransmit re-sends a reliable operation that is still unacked, reusing
// its message id. A put's attempt rides the message's existing span with
// an incremented attempt tag, so retransmitted operations never produce
// orphan spans. Retransmitting an operation that was acked or abandoned
// panics.
//
//rvmalint:hot
func (ep *Endpoint) Retransmit(op *Reliable) {
	prev := op.current
	if prev == nil {
		panic("rdma: retransmit of a reliable operation that was acked or abandoned")
	}
	at := ep.sh.attempts.New()
	at.cmd, at.dst, at.first = prev.cmd, prev.dst, op.first
	at.sp = ep.reg.Span(metrics.SpanKey{Node: ep.Node(), ID: at.cmd.msgID}) // nil for a send
	at.sp.NextAttempt(ep.eng.Now())
	ep.sendAttempt(op, at)
}

// AbandonReliable drops a reliable operation the recovery layer gave up
// on, so a straggler ack cannot resolve a retired handle. A put's span (if
// still open) closes with status "abandoned" instead of leaking.
func (ep *Endpoint) AbandonReliable(op *Reliable) {
	at := op.current
	if at == nil {
		return
	}
	op.current = nil
	ep.reg.Span(metrics.SpanKey{Node: ep.Node(), ID: at.cmd.msgID}).EndAbandoned(ep.eng.Now())
}

// sendAttempt makes at op's current attempt and posts it.
//
//rvmalint:hot
func (ep *Endpoint) sendAttempt(op *Reliable, at *attempt) {
	if at.cmd.op == opPutData {
		ep.Stats.PutsInitiated++
	}
	at.cmd.ref, at.op = at, op
	op.current = at
	ep.post(at)
}

// live returns the operation an ack of at resolves: at's operation, while
// the record still runs it and it is live; nil otherwise.
//
//rvmalint:hot
func (at *attempt) live() *Reliable {
	if op := at.op; op.first == at.first && op.current != nil {
		return op
	}
	return nil
}

//rvmalint:hot
func (at *attempt) post(ep *Endpoint) {
	at.sp.Stage(ep.eng.Now(), "host_post")
	at.txWait = ep.nic.SendBacklog() + ep.nic.DMABacklog()
	ep.send(at.dst, at.cmd.total, &at.cmd, at)
}

// sent is the attempt's local completion; a first attempt's goes to the
// handler. The record still runs the operation then, acked, abandoned or
// not: a caller reuses it only once its first attempt was sent.
//
//rvmalint:hot
func (at *attempt) sent(ep *Endpoint) {
	at.sp.StageWait(ep.eng.Now(), "nic_tx", at.txWait)
	if at.first != at {
		return
	}
	op := at.op
	if sim.DebugEnabled {
		sim.Assertf(op.first == at && op.unsent, "rdma: operation %d's record was reused before its first attempt was sent", at.cmd.msgID)
	}
	op.unsent = false
	if ep.onReliable != nil {
		ep.onReliable.ReliableSent(op)
	}
}
