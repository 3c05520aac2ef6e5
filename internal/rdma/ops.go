package rdma

import (
	"fmt"

	"rvma/internal/metrics"
	"rvma/internal/sim"
)

// RegOp tracks a buffer-negotiation handshake (Figure 1, steps 1-3). It
// is its own continuation, as a PutOp is: the request waits out the
// host's post overhead in the post stage, and the reply its CQ
// processing in the reap stage, whose event runs the op's own method.
type RegOp struct {
	// Done resolves with the RemoteBuffer once the target has allocated,
	// registered, and replied.
	Done *sim.Future

	done  sim.Future    // what Done points at
	req   command       // the request the target answers
	rb    RemoteBuffer  // the reply's buffer, between its arrival and its reaping
	h     BufferHandler // NegotiateBuffer's handler
	start sim.Time      // when the handshake began (handshake histogram)
	dst   int
	ep    *Endpoint
}

// BufferHandler takes the RemoteBuffer of a handshake NegotiateBuffer
// started.
type BufferHandler interface {
	// BufferReady runs when the reply has been reaped, when the Done of
	// a RequestRemoteBuffer would complete.
	BufferReady(rb RemoteBuffer)
}

// RequestRemoteBuffer performs the RDMA setup handshake the paper's
// Figure 1 describes: ask dst for a buffer of the given size; the target
// allocates and registers it (paying registration cost) and replies with
// the (address, length, key) the initiator must retain. This round trip —
// absent in RVMA — is the setup cost Figure 6 amortizes.
func (ep *Endpoint) RequestRemoteBuffer(dst, size int) *RegOp {
	op := new(RegOp)
	op.Done = &op.done
	ep.requestBuffer(op, dst, size)
	return op
}

// NegotiateBuffer is RequestRemoteBuffer for a caller that keeps a record
// per peer: h, typically that record, takes the RemoteBuffer, so the
// handshake hands out no future and boxes no value, and its op, which no
// caller holds, is carved from the shard's slab.
func (ep *Endpoint) NegotiateBuffer(dst, size int, h BufferHandler) {
	op := ep.sh.regOps.New()
	op.h = h
	ep.requestBuffer(op, dst, size)
}

func (ep *Endpoint) requestBuffer(op *RegOp, dst, size int) {
	if size <= 0 {
		panic(fmt.Sprintf("rdma: remote buffer size %d", size))
	}
	op.start, op.dst, op.ep = ep.eng.Now(), dst, ep
	op.req = command{op: opRegRequest, msgID: ep.nextMsgID, size: size, ref: op}
	ep.nextMsgID++
	ep.regsInFlight++
	ep.post(op)
}

// post sends the request once the host has posted it.
func (op *RegOp) post(ep *Endpoint) { ep.nic.Send(op.dst, 0, &op.req) }

// reaped completes the handshake once the host has processed the reply.
func (op *RegOp) reaped() {
	ep := op.ep
	ep.mHandshake.ObserveTime(ep.eng.Now() - op.start)
	if op.h != nil {
		op.h.BufferReady(op.rb)
		return
	}
	//rvmalint:allow hotalloc -- a RequestRemoteBuffer handshake, whose caller reads the buffer from Done; NegotiateBuffer's boxes nothing
	op.done.Complete(ep.eng.Engine, op.rb)
}

// PutOp tracks one initiated RDMA put. It owns the continuations of its
// own pipeline: post, local send completion and, with CompleteSendRecv,
// the trailing fence send's post and completion (putFence).
//
// A PutN's op is the endpoint's own, and goes back to the endpoint's free
// list once nothing can reach it any more. refs counts what still can:
// its local completion, each data packet until the target has handled
// it, the transport ACK of a conservative fence until the initiator has,
// and the fence packet until the target has. Only components on the
// initiator's shard count, each deciding from the peer's node id, so an
// op whose target is on another shard is never recycled, and a packet
// the fabric drops is never counted down, leaving its op to the
// collector. An op Put handed to a caller is counted the same way but
// never recycled.
type PutOp struct {
	// Local resolves when the last data packet (and the trailing fence
	// send, if any) has been handed to the fabric.
	Local *sim.Future

	local  sim.Future    // what Local points at
	cmd    command       // the wire command every data packet carries
	fence  command       // the trailing fence send's command (CompleteSendRecv)
	sp     *metrics.Span // the put's span, nil unless spans are enabled
	txWait sim.Time      // NIC backlog when the data was posted (span nic_tx wait)
	dst    int
	ep     *Endpoint // the initiator, whose free list a PutN's op returns to
	refs   int32     // references left (see PutOp); 0 on the free list
	fenced bool      // CompleteSendRecv: Local waits for the fence send
	pooled bool      // a PutN's op: no caller holds it
	next   *PutOp    // free-list link
}

// putFence is a PutOp in the role of its trailing fence send: the same
// object, with the fence's post and local completion as its methods.
type putFence PutOp

// acked runs when the transport ACK of a conservative CompleteSendRecv put
// returns. On an unordered network the initiator reaps the write's local
// completion — for a reliable transport, the responder's ACK — and only
// then posts the 1-byte send: ACK round trip + CQ poll + a second post,
// all on the critical path (what a naive perftest modification does).
//
//rvmalint:hot
func (op *PutOp) acked(ep *Endpoint) { ep.reap((*putFence)(op)) }

// Put writes data into the remote buffer at offset using the given
// target-side completion scheme. With CompleteSendRecv a 1-byte send is
// issued immediately after the put on the same (ordered) flow, which is
// what the paper's modified perftest does to be specification-compliant
// on adaptively routed networks (§V-A1).
func (ep *Endpoint) Put(rb RemoteBuffer, offset int, data []byte, scheme CompletionScheme) *PutOp {
	op := &PutOp{ep: ep}
	op.Local = &op.local
	ep.put(op, rb, offset, len(data), data, scheme)
	return op
}

// PutN is Put without payload bytes (timing-only, for motif scale). It
// hands out no handle: its local completion reaches the endpoint's
// handler (SetSentHandler), so its op is recycled once it is spent.
//
//rvmalint:hot
func (ep *Endpoint) PutN(rb RemoteBuffer, offset, size int, scheme CompletionScheme) {
	op := ep.freePut()
	ep.put(op, rb, offset, size, nil, scheme)
}

//rvmalint:hot
func (ep *Endpoint) put(op *PutOp, rb RemoteBuffer, offset, size int, data []byte, scheme CompletionScheme) {
	if offset < 0 || size < 0 || offset+size > rb.Size {
		panic(fmt.Sprintf("rdma: put [%d,%d) exceeds remote buffer of %d", offset, offset+size, rb.Size))
	}
	ep.Stats.PutsInitiated++
	msgID := ep.nextMsgID
	ep.nextMsgID++
	op.cmd = command{
		op: opPutData, msgID: msgID, rkey: rb.RKey, msgOffset: offset, total: size, ref: op,
		wantAck: scheme == CompleteSendRecv && !ep.cfg.PipelinedFence,
	}
	op.dst, op.fenced = rb.Node, scheme == CompleteSendRecv
	if ep.cfg.CarryData {
		op.cmd.data = data
	}
	if ep.nic.SameShard(op.dst) {
		op.refs = 1 + int32(ep.nic.Packets(size))
		if op.cmd.wantAck {
			op.refs++
		}
		if op.fenced {
			op.refs++
		}
	}
	op.sp = ep.reg.BeginSpan(ep.eng.Now(), metrics.SpanKey{Node: ep.Node(), ID: msgID}, "rdma.put", ep.Node())
	ep.post(op)
}

// post hands the put's data to the NIC once the host has posted it.
//
//rvmalint:hot
func (op *PutOp) post(ep *Endpoint) {
	op.sp.Stage(ep.eng.Now(), "host_post")
	op.txWait = ep.nic.SendBacklog() + ep.nic.DMABacklog()
	ep.send(op.dst, op.cmd.total, &op.cmd, op)
	p := ep.peer(op.dst)
	p.sent += uint64(op.cmd.total)
	if !op.fenced {
		return
	}
	op.fence.fenceBytes = p.sent
	if ep.cfg.PipelinedFence {
		// Aggressive runtime: post the send right behind the data (one
		// extra post) and let the target's transport hold it until the
		// put's bytes have all landed.
		ep.post((*putFence)(op))
	}
	// Otherwise the data's transport ACK runs op.acked.
}

// sent closes the put's nic_tx stage and, unless a fence send follows,
// the put itself.
//
//rvmalint:hot
func (op *PutOp) sent(ep *Endpoint) {
	op.sp.StageWait(ep.eng.Now(), "nic_tx", op.txWait)
	if !op.fenced {
		op.complete(ep)
	}
}

// complete completes the put locally: a PutN's completion goes to the
// endpoint's handler, a Put's to its Local future.
//
//rvmalint:hot
func (op *PutOp) complete(ep *Endpoint) {
	if !op.pooled {
		op.Local.Complete(ep.eng.Engine, nil)
	}
	dst, pooled := op.dst, op.pooled
	if ep.nic.SameShard(dst) {
		op.unref()
	}
	if pooled && ep.onSent != nil {
		ep.onSent.Sent(dst)
	}
}

// unref consumes one of op's references; the last one puts a PutN's op
// back on its endpoint's free list.
//
//rvmalint:hot
func (op *PutOp) unref() {
	if sim.DebugEnabled {
		sim.Assertf(op.refs > 0, "rdma: put %d consumed after its last reference", op.cmd.msgID)
	}
	op.refs--
	if op.refs > 0 || !op.pooled {
		return
	}
	ep := op.ep
	if sim.DebugEnabled {
		sim.Assertf(ep.nic.SameShard(op.dst), "rdma: put %d to node %d on another shard recycled", op.cmd.msgID, op.dst)
	}
	*op = PutOp{ep: ep, pooled: true, next: ep.sparePuts}
	ep.sparePuts = op
}

// freePut takes a PutN's op from the endpoint's free list, or on a miss
// from the shard's slab: ops return once spent, so the list grows to the
// peak of puts in flight and then stays.
//
//rvmalint:hot
func (ep *Endpoint) freePut() *PutOp {
	op := ep.sparePuts
	if op == nil {
		op = ep.sh.puts.New()
		op.ep, op.pooled = ep, true
		return op
	}
	if sim.DebugEnabled {
		sim.Assertf(op.refs == 0, "rdma: put on the free list has %d references", op.refs)
	}
	ep.sparePuts, op.next = op.next, nil
	return op
}

// post sends the put's trailing 1-byte fence.
//
//rvmalint:hot
func (f *putFence) post(ep *Endpoint) {
	f.fence.op, f.fence.msgID, f.fence.qp, f.fence.total = opSend, ep.nextMsgID, FenceQP, 1
	f.fence.ref = (*PutOp)(f)
	ep.nextMsgID++
	ep.send(f.dst, 1, &f.fence, f)
}

// sent completes the put: its fence has left the NIC.
//
//rvmalint:hot
func (f *putFence) sent(ep *Endpoint) { (*PutOp)(f).complete(ep) }

// SendOp tracks a two-sided send, which Send hands to no caller. Like a
// PutN's op it returns to the endpoint's free list once spent: refs
// counts its local completion and each packet until the target has
// handled it, on the initiator's shard only.
type SendOp struct {
	cmd  command // the wire command every packet of the send carries
	dst  int
	ep   *Endpoint
	refs int32
	next *SendOp // free-list link
}

// Send issues a two-sided message of the given size to dst on the given
// QP index, consuming a posted receive there. Sends on the fence QP obey
// the fence rule: they are delivered only after all previously issued put
// bytes to that destination have landed (per-QP operation ordering).
// Control QPs (qp != FenceQP) carry no fence.
//
//rvmalint:hot
func (ep *Endpoint) Send(dst, qp, size int) {
	op := ep.spareSends
	if op != nil {
		if sim.DebugEnabled {
			sim.Assertf(op.refs == 0, "rdma: send on the free list has %d references", op.refs)
		}
		ep.spareSends, op.next = op.next, nil
	} else {
		// A miss: sends return once spent, so the list grows to the peak
		// of sends in flight and then stays.
		op = ep.sh.sendOps.New()
		op.ep = ep
	}
	op.cmd = command{op: opSend, msgID: ep.nextMsgID, qp: qp, total: size, ref: op}
	op.dst = dst
	if ep.nic.SameShard(dst) {
		op.refs = 1 + int32(ep.nic.Packets(size))
	}
	ep.nextMsgID++
	ep.post(op)
}

//rvmalint:hot
func (op *SendOp) post(ep *Endpoint) {
	if op.cmd.qp == FenceQP {
		op.cmd.fenceBytes = ep.sentTo(op.dst)
	}
	ep.send(op.dst, op.cmd.total, &op.cmd, op)
}

//rvmalint:hot
func (op *SendOp) sent(ep *Endpoint) {
	if ep.nic.SameShard(op.dst) {
		op.unref()
	}
}

// unref consumes one of op's references; the last one puts it back on
// its endpoint's free list.
//
//rvmalint:hot
func (op *SendOp) unref() {
	if sim.DebugEnabled {
		sim.Assertf(op.refs > 0, "rdma: send %d consumed after its last reference", op.cmd.msgID)
	}
	op.refs--
	if op.refs > 0 {
		return
	}
	ep := op.ep
	if sim.DebugEnabled {
		sim.Assertf(ep.nic.SameShard(op.dst), "rdma: send %d to node %d on another shard recycled", op.cmd.msgID, op.dst)
	}
	*op = SendOp{ep: ep, next: ep.spareSends}
	ep.spareSends = op
}

// RecvOp tracks a posted receive. Done resolves (with the send's size)
// after the matching send is deliverable (fence satisfied), a CQ entry is
// generated, and host software reaps it at its polling cadence.
type RecvOp struct {
	Done *sim.Future

	done sim.Future  // what Done points at
	h    RecvHandler // PostRecvTo's handler, which takes the completion instead of done
	ep   *Endpoint   // the endpoint whose spare list the receive returns to
	next *RecvOp     // spare-list link
}

// RecvHandler takes the completion of a receive PostRecvTo posted.
type RecvHandler interface {
	// Received runs when the receive's CQ entry has been reaped, when the
	// Done of a PostRecv's receive would complete, with the send's size.
	Received(size int)
}

// PostRecv posts a receive for sends arriving from src on the given QP
// index; sends and receives match in FIFO order per queue pair. QP
// indices are small non-negative integers. The receive is one that
// ReleaseRecv returned, if the endpoint holds one.
//
//rvmalint:hot
func (ep *Endpoint) PostRecv(src, qp int) *RecvOp {
	op := ep.recvOp()
	op.Done = &op.done
	ep.postRecv(src, qp, op)
	return op
}

// PostRecvTo is PostRecv for a caller that keeps a record per peer: h,
// typically that record, takes the completion, so the receive hands out
// no future, boxes no size, and goes back to the endpoint by itself
// before h runs.
//
//rvmalint:hot
func (ep *Endpoint) PostRecvTo(src, qp int, h RecvHandler) {
	op := ep.recvOp()
	op.h = h
	ep.postRecv(src, qp, op)
}

// recvOp takes a receive from the endpoint's spare list, or on a miss
// from the shard's slab: every receive the endpoint handed out is still
// held.
//
//rvmalint:hot
func (ep *Endpoint) recvOp() *RecvOp {
	op := ep.spareRecvs
	if op == nil {
		op = ep.sh.recvs.New()
		op.ep = ep
		return op
	}
	ep.spareRecvs, op.next = op.next, nil
	return op
}

//rvmalint:hot
func (ep *Endpoint) postRecv(src, qp int, op *RecvOp) {
	p := ep.peer(src)
	q := p.qp(qp)
	q.recvs.PushIn(&ep.sh.recvRings, op)
	ep.matchSends(src, p, q)
}

// complete completes a receive whose CQ entry the host has reaped: a
// PostRecvTo receive goes back to its endpoint and then to its handler,
// a PostRecv one resolves Done.
//
//rvmalint:hot
func (op *RecvOp) complete(size int) {
	ep := op.ep
	if h := op.h; h != nil {
		op.h = nil
		op.next, ep.spareRecvs = ep.spareRecvs, op
		h.Received(size)
		return
	}
	//rvmalint:allow hotalloc -- a PostRecv receive's Done carries the size, boxed from 256 B up; PostRecvTo's boxes nothing
	op.done.Complete(ep.eng.Engine, size)
}

// ReleaseRecv hands a completed receive back to the endpoint, whose next
// PostRecv reuses it. The caller must be the receive's last holder:
// neither op nor op.Done may be used afterwards. A receive is safe to
// release once every callback of its Done has run, since nothing else in
// the model keeps it after it completes.
func (ep *Endpoint) ReleaseRecv(op *RecvOp) {
	if sim.DebugEnabled {
		sim.Assertf(op.done.Done(), "rdma: release of a pending receive")
	}
	op.done, op.Done = sim.Future{}, nil
	op.next, ep.spareRecvs = ep.spareRecvs, op
}

// byteWait is a cumulative-byte poll used by applications that reuse one
// registered buffer for a stream of transfers: "poll the last byte of the
// n-th message", expressed as "wait until target cumulative put bytes from
// a peer have landed". Like last-byte polling it is only sound when the
// network preserves byte order (static routing).
type byteWait struct {
	target uint64
	done   *sim.Future
}

// WaitBytes returns a future that resolves (after a poll tick and host
// processing) once the cumulative put payload bytes received from src
// reach target. If they already have, it resolves after one poll tick.
// The future is one that ReleaseWait returned, if the endpoint holds one.
func (ep *Endpoint) WaitBytes(src int, target uint64) *sim.Future {
	var f *sim.Future
	if n := len(ep.spareWaits) - 1; n >= 0 {
		f = ep.spareWaits[n]
		ep.spareWaits[n] = nil
		ep.spareWaits = ep.spareWaits[:n]
	} else {
		f = sim.NewFuture()
	}
	p := ep.peer(src)
	if p.recv >= target {
		ep.pollByte(completion{f: f})
		return f
	}
	p.waits = append(p.waits, byteWait{target: target, done: f})
	return f
}

// ReleaseWait hands a completed WaitBytes future back to the endpoint,
// whose next WaitBytes reuses it, on the terms of ReleaseRecv.
func (ep *Endpoint) ReleaseWait(f *sim.Future) {
	if sim.DebugEnabled {
		sim.Assertf(f.Done(), "rdma: release of a pending byte wait")
	}
	*f = sim.Future{}
	ep.spareWaits = append(ep.spareWaits, f)
}

// LastByteWait is target software polling the final byte of an expected
// transfer (the "cheat" completion valid only under static routing).
type LastByteWait struct {
	// Done resolves when the poll observes the last byte written. Its
	// value is a bool: whether the full span had actually arrived at that
	// moment. On byte-ordered networks it is always true; under adaptive
	// routing it can be false — the premature-completion data corruption
	// the paper warns about (§II, §IV-D).
	Done *sim.Future

	mr     *MemoryRegion
	length int
	fired  bool
}

// WaitLastByte arms a last-byte poll on mr for a transfer expected to fill
// length bytes from the region's start.
func (ep *Endpoint) WaitLastByte(mr *MemoryRegion, length int) *LastByteWait {
	if length <= 0 || length > mr.Region.Size() {
		panic(fmt.Sprintf("rdma: last-byte wait length %d in region %d", length, mr.Region.Size()))
	}
	w := &LastByteWait{Done: sim.NewFuture(), mr: mr, length: length}
	ep.lastByteWaits = append(ep.lastByteWaits, w)
	return w
}
