package rvma

import (
	"fmt"

	"rvma/internal/metrics"
	"rvma/internal/sim"
)

// PutOp tracks one initiated put. It owns the continuations of its own
// pipeline: the post and the NIC send's local completion.
//
// A PutN's op is the endpoint's own, and goes back to the endpoint's
// free list once nothing can reach it any more. refs counts what still
// can: its local completion, each data packet until the target has
// handled it, and each NACK until the initiator has. Only components on
// the initiator's shard count, each deciding from the peer's node id, so
// an op whose target is on another shard is never recycled, and a packet
// the fabric drops is never counted down, leaving its op to the
// collector. An op Put handed to a caller is counted the same way but
// never recycled.
type PutOp struct {
	// Local completes when the initiating NIC has handed the last packet
	// to the fabric (the local buffer is reusable).
	Local *sim.Future
	// Nack completes only if the target NACKed the operation (closed or
	// unknown mailbox, buffer overrun); its value is the error. Puts to
	// healthy mailboxes never resolve Nack — RVMA puts are unacknowledged,
	// which is exactly why they need no return traffic on the critical
	// path.
	Nack *sim.Future

	local, nack sim.Future    // what Local and Nack point at
	cmd         command       // the wire command every packet carries
	sp          *metrics.Span // the put's span, nil unless spans are enabled
	txWait      sim.Time      // NIC backlog when the put was posted (span nic_tx wait)
	dst         int
	ep          *Endpoint // the initiator, whose free list a PutN's op returns to
	refs        int32     // references left (see PutOp); 0 on the free list
	pooled      bool      // a PutN's op: no caller holds it
	next        *PutOp    // free-list link
}

// Put initiates a transfer of data to mailbox vaddr on node dst, placing
// it at the given offset within the target's active buffer (the paper's
// RVMA_Put; the offset is the mechanism that makes placement independent
// of packet arrival order, §IV-D). No handshake precedes the put: the
// initiator needs only (node, vaddr), never a physical address.
//
// Host software overhead (one post) is charged before the NIC pipeline.
func (ep *Endpoint) Put(dst int, vaddr VAddr, offset int, data []byte) *PutOp {
	op := &PutOp{ep: ep}
	op.Local, op.Nack = &op.local, &op.nack
	ep.put(op, dst, vaddr, offset, len(data), data)
	return op
}

// PutN is Put without payload bytes: only sizes and timing flow through
// the simulation. Large-scale motif runs use it to avoid materializing
// gigabytes of payload. It hands out no handle: the put's local
// completion reaches the endpoint's handler (SetNackHandler) as Sent, and
// a NACK of it as Nacked, so its op is recycled once it is spent.
//
//rvmalint:hot
func (ep *Endpoint) PutN(dst int, vaddr VAddr, offset, size int) {
	p := ep.pipeline()
	op := p.freePuts
	if op != nil {
		if sim.DebugEnabled {
			sim.Assertf(op.refs == 0, "rvma: put on the free list has %d references", op.refs)
		}
		p.freePuts, op.next = op.next, nil
	} else {
		// A miss: ops return once spent, so the list grows to the peak of
		// puts in flight and then stays.
		op = ep.sh.puts.New()
		op.ep, op.pooled = ep, true
	}
	ep.put(op, dst, vaddr, offset, size, nil)
}

//rvmalint:hot
func (ep *Endpoint) put(op *PutOp, dst int, vaddr VAddr, offset, size int, data []byte) {
	if size < 0 || offset < 0 {
		panic(fmt.Sprintf("rvma: put with negative size %d or offset %d", size, offset))
	}
	ep.Stats.PutsInitiated++
	op.cmd = command{op: opPut, msgID: ep.nextMsgID, vaddr: vaddr, msgOffset: offset, total: size, ref: op}
	op.dst = dst
	ep.nextMsgID++
	if ep.cfg.CarryData {
		op.cmd.data = data
	}
	if ep.nic.SameShard(dst) {
		op.refs = 1 + int32(ep.nic.Packets(size))
	}
	op.sp = ep.reg.BeginSpan(ep.eng.Now(), metrics.SpanKey{Node: ep.Node(), ID: op.cmd.msgID}, "rvma.put", ep.Node())
	ep.post(op)
}

// post hands the put to the NIC once the host has posted it.
//
//rvmalint:hot
func (op *PutOp) post(ep *Endpoint) {
	op.sp.Stage(ep.eng.Now(), "host_post")
	// NIC queue depth at post time: the part of the nic_tx stage the
	// message spends behind earlier sends rather than being pipelined.
	op.txWait = ep.nic.SendBacklog() + ep.nic.DMABacklog()
	ep.send(op.dst, &op.cmd, op)
}

// sent completes the put locally: its last packet has left the NIC. A
// PutN's completion goes to the endpoint's handler.
//
//rvmalint:hot
func (op *PutOp) sent(ep *Endpoint) {
	op.sp.StageWait(ep.eng.Now(), "nic_tx", op.txWait)
	if !op.pooled {
		op.Local.Complete(ep.eng.Engine, nil)
	}
	dst, pooled := op.dst, op.pooled
	if ep.nic.SameShard(dst) {
		op.unref()
	}
	if pooled && ep.onNack != nil {
		ep.onNack.Sent(dst)
	}
}

// unref consumes one of op's references; the last one puts a PutN's op
// back on its endpoint's free list.
//
//rvmalint:hot
func (op *PutOp) unref() {
	if sim.DebugEnabled {
		sim.Assertf(op.refs > 0, "rvma: put %d consumed after its last reference", op.cmd.msgID)
	}
	op.refs--
	if op.refs > 0 || !op.pooled {
		return
	}
	ep := op.ep
	if sim.DebugEnabled {
		sim.Assertf(ep.nic.SameShard(op.dst), "rvma: put %d to node %d on another shard recycled", op.cmd.msgID, op.dst)
	}
	p := ep.pipeline()
	*op = PutOp{ep: ep, pooled: true, next: p.freePuts}
	p.freePuts = op
}

// ReliablePut is a put whose target acknowledges full placement — the
// sender-side handle the recovery layer drives. The wire protocol is the
// ordinary unacknowledged put plus one NIC-generated ack control packet
// on full reassembly, so the data path the paper argues for is unchanged;
// only senders that opt into timeout/retransmit pay for return traffic.
//
// The caller owns the record and may reuse it once the put was acked or
// abandoned and its first attempt has completed locally (Sent): every
// attempt is a record of its own, carved from the endpoint's shard and
// never reused, and the target's ack and NACKs name the attempt whose
// packet drew them. An attempt names the put's first
// attempt, so an ack or NACK resolves the put only while the record still
// runs that put, and then resolves its current attempt, whichever
// attempt's packets drew it. The endpoint reports the first attempt's
// local completion, the ack and each attempt's first NACK to its
// ReliableHandler.
type ReliablePut struct {
	// Owner is the caller's: its ReliableHandler reaches its own record
	// of the put through it. The endpoint never reads it.
	Owner any

	first   *putAttempt // the put's first attempt, which every attempt names
	attempt *putAttempt // the current attempt; nil once acked or abandoned
	nacked  bool        // the current attempt drew a NACK
	unsent  bool        // the first attempt has not completed locally
}

// Sent reports whether rp's first attempt has completed locally, which
// the handler learned of. A put abandoned while its first attempt still
// waits at the NIC is not: its record is not the caller's to reuse until
// the endpoint has reported that local completion.
func (rp *ReliablePut) Sent() bool { return !rp.unsent }

// putAttempt is one wire attempt of a reliable put. Like PutOp, it owns
// its post and sent continuations; its command is what every packet of
// the attempt carries, so the record outlives the attempt's packets.
type putAttempt struct {
	cmd    command       // the wire command; its ref is the attempt itself
	rp     *ReliablePut  // the put, if the record still runs it (first)
	first  *putAttempt   // the put's first attempt
	sp     *metrics.Span // the message's span, nil unless spans are enabled
	txWait sim.Time      // NIC backlog when the attempt was posted
	dst    int
}

// ReliableHandler observes an endpoint's reliable puts on the initiator
// side. One handler, registered once, serves every reliable put, as a
// NackHandler serves every plain one.
type ReliableHandler interface {
	// ReliableSent runs when rp's first attempt has completed locally:
	// its last packet has left the NIC.
	ReliableSent(rp *ReliablePut)
	// ReliableAcked runs at rp's first ack; rp is no longer live after.
	ReliableAcked(rp *ReliablePut)
	// ReliableNacked runs at the first NACK to reach live rp during its
	// current attempt, with the target's reason.
	ReliableNacked(rp *ReliablePut, reason error)
}

// SetReliableHandler installs h to observe every reliable put. A nil h
// removes the handler.
func (ep *Endpoint) SetReliableHandler(h ReliableHandler) { ep.onReliable = h }

// PutNAcked initiates a reliable put (no payload bytes, like PutN) on rp,
// a record the caller owns that is not live. The target window must be
// Steered: offset-carrying packets are what make retransmitted duplicates
// exact re-hits the receiver can discard.
//
//rvmalint:hot
func (ep *Endpoint) PutNAcked(rp *ReliablePut, dst int, vaddr VAddr, offset, size int) {
	if size < 0 || offset < 0 {
		panic(fmt.Sprintf("rvma: put with negative size %d or offset %d", size, offset))
	}
	if rp.attempt != nil || rp.unsent {
		panic("rvma: reliable put started on a record that is still live or not yet sent")
	}
	at := ep.sh.attempts.New()
	at.cmd = command{op: opPut, wantAck: true, msgID: ep.nextMsgID, vaddr: vaddr, msgOffset: offset, total: size}
	ep.nextMsgID++
	at.sp = ep.reg.BeginSpan(ep.eng.Now(), metrics.SpanKey{Node: ep.Node(), ID: at.cmd.msgID}, "rvma.put", ep.Node())
	at.dst, at.first = dst, at
	rp.first, rp.unsent = at, true
	ep.sendAttempt(rp, at)
}

// Retransmit re-sends a reliable put that has neither been acked nor
// abandoned, reusing the message id so the target deduplicates against
// packets of earlier attempts. The attempt rides the message's existing
// span with an incremented attempt tag — no orphan spans — unless the
// span already ended (the target completed it off an earlier attempt
// whose ack is still in flight), in which case the attempt is unrecorded
// by design.
//
//rvmalint:hot
func (ep *Endpoint) Retransmit(rp *ReliablePut) {
	prev := rp.attempt
	if prev == nil {
		panic("rvma: retransmit of a reliable put that was acked or abandoned")
	}
	at := ep.sh.attempts.New()
	at.cmd, at.dst, at.first = prev.cmd, prev.dst, rp.first
	at.sp = ep.reg.Span(metrics.SpanKey{Node: ep.Node(), ID: at.cmd.msgID})
	at.sp.NextAttempt(ep.eng.Now())
	ep.sendAttempt(rp, at)
}

// AbandonPut drops a reliable put the recovery layer has given up on, so
// a straggler ack cannot resolve a retired operation. The message's span
// (if still open) closes with status "abandoned" instead of leaking.
func (ep *Endpoint) AbandonPut(rp *ReliablePut) {
	at := rp.attempt
	if at == nil {
		return
	}
	rp.attempt = nil
	ep.reg.Span(metrics.SpanKey{Node: ep.Node(), ID: at.cmd.msgID}).EndAbandoned(ep.eng.Now())
}

// sendAttempt makes at rp's current attempt and posts it.
//
//rvmalint:hot
func (ep *Endpoint) sendAttempt(rp *ReliablePut, at *putAttempt) {
	ep.Stats.PutsInitiated++
	at.cmd.ref, at.rp = at, rp
	rp.attempt, rp.nacked = at, false
	ep.post(at)
}

// live returns the put an ack or NACK of at resolves: at's put, while the
// record still runs it and it is live; nil otherwise.
//
//rvmalint:hot
func (at *putAttempt) live() *ReliablePut {
	if rp := at.rp; rp.first == at.first && rp.attempt != nil {
		return rp
	}
	return nil
}

//rvmalint:hot
func (at *putAttempt) post(ep *Endpoint) {
	at.sp.Stage(ep.eng.Now(), "host_post")
	at.txWait = ep.nic.SendBacklog() + ep.nic.DMABacklog()
	ep.send(at.dst, &at.cmd, at)
}

// sent is the attempt's local completion; a first attempt's goes to the
// handler. The record still runs the put then, acked, abandoned or not:
// a caller reuses it only once its first attempt was sent.
//
//rvmalint:hot
func (at *putAttempt) sent(ep *Endpoint) {
	at.sp.StageWait(ep.eng.Now(), "nic_tx", at.txWait)
	if at.first != at {
		return
	}
	rp := at.rp
	if sim.DebugEnabled {
		sim.Assertf(rp.first == at && rp.unsent, "rvma: put %d's record was reused before its first attempt was sent", at.cmd.msgID)
	}
	rp.unsent = false
	if ep.onReliable != nil {
		ep.onReliable.ReliableSent(rp)
	}
}

// GetOp tracks one initiated get.
type GetOp struct {
	// Done completes when the full reply has arrived; in CarryData mode
	// its value is the fetched []byte.
	Done *sim.Future
	// Nack completes if the target refused the get.
	Nack *sim.Future

	done, nack sim.Future // what Done and Nack point at
	req        command    // the one-packet request
	dst        int
	got        int    // reply bytes arrived so far
	buf        []byte // the reply's bytes (CarryData mode)
}

// Get fetches length bytes at offset from the *active* buffer of mailbox
// vaddr on node dst. The paper names get/read as part of a comprehensive
// RVMA specification (§III-C); like Put it needs no pre-negotiated
// physical address. The target NIC reads the region over its bus and
// streams a (possibly multi-packet) reply.
func (ep *Endpoint) Get(dst int, vaddr VAddr, offset, length int) *GetOp {
	if length <= 0 || offset < 0 {
		panic(fmt.Sprintf("rvma: get with length %d offset %d", length, offset))
	}
	op := &GetOp{dst: dst}
	op.Done, op.Nack = &op.done, &op.nack
	op.req = command{op: opGetReq, msgID: ep.nextMsgID, vaddr: vaddr, msgOffset: offset, total: length, ref: op}
	ep.nextMsgID++
	ep.post(op)
	return op
}

// post sends the get request once the host has posted it.
func (op *GetOp) post(ep *Endpoint) { ep.nic.Send(op.dst, 0, &op.req) }
