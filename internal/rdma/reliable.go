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

	local, acked sim.Future // what the exported fields point at
	cmd          command    // the wire command every packet of the attempt carries
}

// reliableOp lets the ack dispatch resolve whichever attempt is current.
type reliableOp interface {
	currentAttempt() *Attempt
}

// ReliablePut is an acked one-sided put under recovery-layer control.
type ReliablePut struct {
	rb     RemoteBuffer
	offset int
	size   int
	msgID  uint64

	attempt *Attempt
}

func (rp *ReliablePut) currentAttempt() *Attempt { return rp.attempt }

// MsgID returns the operation's wire message id (stable across attempts).
func (rp *ReliablePut) MsgID() uint64 { return rp.msgID }

// PutNReliable initiates an acked put (timing-only payload, like PutN) and
// returns the operation handle plus its first attempt. Unlike PutN with
// CompleteSendRecv it posts no fence send — a transport that wants fence
// semantics issues its own (reliable) send after the ack.
func (ep *Endpoint) PutNReliable(rb RemoteBuffer, offset, size int) (*ReliablePut, *Attempt) {
	if offset < 0 || size < 0 || offset+size > rb.Size {
		panic(fmt.Sprintf("rdma: put [%d,%d) exceeds remote buffer of %d", offset, offset+size, rb.Size))
	}
	rp := &ReliablePut{rb: rb, offset: offset, size: size, msgID: ep.nextMsgID}
	ep.nextMsgID++
	ep.pendingRel[rp.msgID] = rp
	// Fence accounting counts the operation once: a retransmit re-sends
	// bytes the fence ledger already includes, and the target's dedup
	// keeps the receive side consistent with that.
	ep.sentBytes[rb.Node] += uint64(size)
	sp := ep.reg.BeginSpan(ep.Engine().Now(), metrics.SpanKey{Node: ep.Node(), ID: rp.msgID}, "rdma.put", ep.Node())
	return rp, ep.sendPutAttempt(rp, sp)
}

// RetransmitPut re-sends a reliable put that is still unacked, reusing its
// message id, and returns the fresh attempt. The attempt rides the
// message's existing span with an incremented attempt tag, so
// retransmitted operations never produce orphan spans.
func (ep *Endpoint) RetransmitPut(rp *ReliablePut) *Attempt {
	if _, ok := ep.pendingRel[rp.msgID]; !ok {
		panic(fmt.Sprintf("rdma: retransmit of put %d that is not pending", rp.msgID))
	}
	sp := ep.reg.Span(metrics.SpanKey{Node: ep.Node(), ID: rp.msgID})
	sp.NextAttempt(ep.Engine().Now())
	return ep.sendPutAttempt(rp, sp)
}

// AbandonReliable drops a reliable operation the recovery layer gave up
// on, so a straggler ack cannot resolve a retired handle. The operation's
// span (if still open) closes with status "abandoned" instead of leaking.
func (ep *Endpoint) AbandonReliable(msgID uint64) {
	delete(ep.pendingRel, msgID)
	ep.reg.Span(metrics.SpanKey{Node: ep.Node(), ID: msgID}).EndAbandoned(ep.Engine().Now())
}

func (ep *Endpoint) sendPutAttempt(rp *ReliablePut, sp *metrics.Span) *Attempt {
	ep.Stats.PutsInitiated++
	at := &Attempt{cmd: command{
		op: opPutData, msgID: rp.msgID, rkey: rp.rb.RKey, msgOffset: rp.offset, total: rp.size,
		wantAck: true, reliable: true,
	}}
	at.Local, at.Acked = &at.local, &at.acked
	rp.attempt = at
	eng := ep.eng
	eng.Schedule(ep.nic.Profile().HostPostOverhead, func() {
		sp.Stage(eng.Now(), "host_post")
		txWait := ep.nic.SendBacklog() + ep.nic.DMABacklog()
		ep.nic.SendMessage(rp.rb.Node, rp.size, func(int, int) any { return &at.cmd }, func() {
			sp.StageWait(eng.Now(), "nic_tx", txWait)
			at.Local.Complete(eng.Engine, nil)
		})
	})
	return at
}

// ReliableSend is an acked two-sided send under recovery-layer control.
// The ack fires when the target's NIC has fully reassembled the message
// (transport-level receipt), not when an application receive consumes it.
type ReliableSend struct {
	dst   int
	qp    int
	size  int
	fence uint64
	msgID uint64

	attempt *Attempt
}

func (rs *ReliableSend) currentAttempt() *Attempt { return rs.attempt }

// MsgID returns the operation's wire message id (stable across attempts).
func (rs *ReliableSend) MsgID() uint64 { return rs.msgID }

// SendReliable issues an acked send. Fence-QP sends capture the fence
// ledger once, at issue time, and every retransmit carries that same
// fence — the retransmitted send must wait for exactly the bytes the
// original did.
func (ep *Endpoint) SendReliable(dst, qp, size int) (*ReliableSend, *Attempt) {
	rs := &ReliableSend{dst: dst, qp: qp, size: size, msgID: ep.nextMsgID}
	ep.nextMsgID++
	if qp == FenceQP {
		rs.fence = ep.sentBytes[dst]
	}
	ep.pendingRel[rs.msgID] = rs
	return rs, ep.sendSendAttempt(rs)
}

// RetransmitSend re-sends a reliable send that is still unacked.
func (ep *Endpoint) RetransmitSend(rs *ReliableSend) *Attempt {
	if _, ok := ep.pendingRel[rs.msgID]; !ok {
		panic(fmt.Sprintf("rdma: retransmit of send %d that is not pending", rs.msgID))
	}
	return ep.sendSendAttempt(rs)
}

func (ep *Endpoint) sendSendAttempt(rs *ReliableSend) *Attempt {
	at := &Attempt{cmd: command{
		op: opSend, msgID: rs.msgID, qp: rs.qp, total: rs.size, fenceBytes: rs.fence, reliable: true,
	}}
	at.Local, at.Acked = &at.local, &at.acked
	rs.attempt = at
	eng := ep.eng
	eng.Schedule(ep.nic.Profile().HostPostOverhead, func() {
		ep.nic.SendMessage(rs.dst, rs.size, func(int, int) any { return &at.cmd }, func() {
			at.Local.Complete(eng.Engine, nil)
		})
	})
	return at
}
