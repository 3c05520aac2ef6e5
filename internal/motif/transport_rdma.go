package motif

import (
	"fmt"

	"rvma/internal/rdma"
	"rvma/internal/recovery"
	"rvma/internal/sim"
)

// creditQP is the control queue pair carrying buffer-reuse credits.
const creditQP = 1

// rdmaTransport is the baseline: each (sender, receiver) pair negotiates a
// fixed set of buffers up front (Figure 1) and then must coordinate every
// reuse. A sender holds one credit per negotiated buffer; each message
// consumes a credit, and the receiver returns it (a 1-byte control send)
// once the message has been consumed. Completion at the receiver follows
// the routing mode: cumulative last-byte polling under static routing, or
// the trailing send/recv fence under adaptive routing.
//
// This is the "tight coordination" the paper's Sweep3D discussion blames
// for RDMA's slowdown: where RVMA's receiver-managed mailboxes let a
// sender "simply send the data when it is available", the RDMA sender
// must interlock with the receiver on every buffer reuse, and on adaptive
// networks every message drags a completion send behind it (§V-B1).
type rdmaTransport struct {
	ep    *rdma.Endpoint
	ranks int
	// ordered reports whether the network preserves byte order (static
	// routing), enabling last-byte completion; otherwise every put drags
	// a send/recv fence.
	ordered bool
	nbufs   int
	// sh holds the slabs the transport shares with the others on its shard.
	sh *rdmaShard
	// peers holds a record per node a Prepare named.
	peers sim.Table[rdmaPeer]
	// rec, when set, puts the handshake, every data put, the fence send
	// and every credit return under the recovery layer's
	// timeout/retransmit policy, riding the protocol's own opPutAck path.
	rec *recovery.Manager
	// waits lists the receive waits no Recv is using.
	waits *recvWait
}

// rdmaShard is what the RDMA transports of one shard share: the slabs
// their peer records, send states, buffer handles, Prepare records,
// handshakes and reliable-send records are carved from, a chunk at a
// time, not per rank, and the reliable-send records no operation is
// using. Cluster.Run drops them with the other pools.
type rdmaShard struct {
	peers      sim.Slab[rdmaPeer]
	refs       sim.Slab[sim.TableEntry[rdmaPeer]]
	sends      sim.Slab[sendState]
	bufs       sim.Slab[rdma.RemoteBuffer]
	preps      sim.Slab[prepare]
	handshakes sim.Slab[handshake]
	rsends     sim.Slab[rdmaSend]
	idle       *rdmaSend
}

// drop lets the slabs' chunks and the idle records go.
func (sh *rdmaShard) drop() {
	sh.peers.Drop()
	sh.refs.Drop()
	sh.sends.Drop()
	sh.bufs.Drop()
	sh.preps.Drop()
	sh.handshakes.Drop()
	sh.rsends.Drop()
	sh.idle = nil
}

// held reports whether any of the slabs holds a chunk, or the list an
// idle record.
func (sh *rdmaShard) held() bool {
	return sh.peers.Held() || sh.refs.Held() || sh.sends.Held() || sh.bufs.Held() || sh.preps.Held() ||
		sh.handshakes.Held() || sh.rsends.Held() || sh.idle != nil
}

// rdmaSend is one put, fence send or credit send under the recovery
// layer: the recovery.Sender whose attempts are the reliable operation's.
// It embeds the operation's handle and the manager's record, so the
// endpoint's report of the operation reaches both through the handle's
// Owner, and one record is all an operation costs. It goes back to its
// shard's list once the manager releases it (the operation was acked or
// abandoned and no deadline or retry names it) and the operation's first
// attempt has left the NIC, whichever comes last: an operation abandoned
// while still queued at the NIC has its local completion yet to report.
type rdmaSend struct {
	rp       rdma.Reliable
	rec      recovery.Op
	t        *rdmaTransport
	rb       rdma.RemoteBuffer // a put's target buffer; a send's rb.Node is its destination
	size     int32             // a put's bytes
	qp       int32             // a send's queue pair
	put      bool
	released bool // the manager released the record before the operation was sent
	next     *rdmaSend
}

// handshake is one Figure 1 buffer negotiation under the recovery layer.
// Every attempt is a fresh request, and the first reply from any of them
// hands st its RemoteBuffer and, unless the manager already gave up,
// acks the operation. It is carved from the shard's slab and never
// reused: a late reply may still name it.
type handshake struct {
	rec       recovery.Op
	t         *rdmaTransport
	st        *sendState
	size      int
	replied   bool
	abandoned bool
}

// recvWait is a Recv that must wait: the receive handle, the fence
// receive or (under last-byte polling) the byte wait, and the caller's
// continuation. Waits are pooled per transport with fire bound once, so
// a Recv that waits allocates nothing once the pool has reached the
// transport's peak of waiting receives.
type recvWait struct {
	t     *rdmaTransport
	peer  *rdmaPeer
	recv  *rdma.RecvOp
	bytes *sim.Future
	k     func()
	fire  func() // w.received
	next  *recvWait
}

// received runs at the receive's completion: the credit goes back to the
// sender, the handle back to the endpoint and the wait back to the pool,
// and then the caller continues.
//
//rvmalint:hot
func (w *recvWait) received() {
	t, k := w.t, w.k
	w.peer.creditReturn()
	if w.recv != nil {
		t.ep.ReleaseRecv(w.recv)
	} else {
		t.ep.ReleaseWait(w.bytes)
	}
	w.peer, w.recv, w.bytes, w.k = nil, nil, nil, nil
	w.next, t.waits = t.waits, w
	k()
}

// rdmaPeer is what the transport keeps about one peer. A Prepare carves
// the records of the peers it is the first to name in one array, and the
// send halves of its out-neighbors in another: an in-neighbor only, such
// as every client of an incast server, carries no send state.
type rdmaPeer struct {
	t    *rdmaTransport
	send *sendState // nil unless a Prepare named the peer an out-neighbor
	in   bool       // a Prepare named the peer an in-neighbor
	node int32
	// consumed is the cumulative bytes of the peer's consumed messages
	// (the WaitBytes target).
	consumed uint64
}

// sendState is the per-destination sender bookkeeping.
type sendState struct {
	t       *rdmaTransport
	dst     int32
	rr      int32 // round-robin buffer cursor
	credits int32
	// pending counts the messages sent to dst that have not completed
	// locally, queued ones included. Under adaptive routing a fenced put
	// completes locally only after its ACK round trip, so completions to
	// different destinations do not come in issue order, and each
	// destination counts its own.
	pending int32
	ready   bool // handshakes finished
	// prep is the Prepare whose handshakes are negotiating bufs, nil
	// once it has finished.
	prep  *prepare
	bufs  []rdma.RemoteBuffer
	queue []int32 // sizes of the messages waiting for a credit, oldest first
	// drained is the continuation of the one WaitSent waiting for
	// pending to reach zero, nil when none waits.
	drained func()
}

// prepare is one Prepare call that started handshakes: once every one
// of them has its buffer, its out-neighbors, and only those, become
// ready, and k continues the caller.
type prepare struct {
	t         *rdmaTransport
	k         func()
	remaining int
	sends     []sendState // the send halves this call made, in outPeers order
}

// init makes t, a zero transport in its shard's array, rank ep.Node()'s
// transport. sh is its shard's record, rec the node's recovery manager,
// nil without recovery.
func (t *rdmaTransport) init(ep *rdma.Endpoint, sh *rdmaShard, ranks int, ordered bool, nbufs int, rec *recovery.Manager) {
	t.ep, t.sh, t.ranks, t.ordered, t.nbufs, t.rec = ep, sh, ranks, ordered, nbufs, rec
	ep.SetSentHandler(t)
	if rec != nil {
		ep.SetReliableHandler(t)
	}
}

// Rank implements Transport.
func (t *rdmaTransport) Rank() int { return t.ep.Node() }

// Ranks implements Transport.
func (t *rdmaTransport) Ranks() int { return t.ranks }

// Prepare implements Transport: run the Figure 1 handshake for every
// out-neighbor (nbufs buffers each) before any data can move — the setup
// RVMA does not have. In-neighbors need only local state. The peer
// records, send states and buffer handles are carved in bulk from the
// shard's slabs, a few arrays per call, and each handshake reports to its
// peer's send state. A call that names no new out-neighbor starts no
// handshake and is done at once.
func (t *rdmaTransport) Prepare(inPeers, outPeers []int, maxMsg int, k func()) bool {
	t.addPeers(inPeers)
	t.addPeers(outPeers)
	for _, src := range inPeers {
		t.peer(src).in = true
	}
	n := 0
	for _, dst := range outPeers {
		if t.peer(dst).send == nil {
			n++
		}
	}
	if n == 0 {
		return true
	}
	pr := t.sh.preps.New()
	pr.t, pr.k, pr.sends = t, k, t.sh.sends.Make(n)[:0]
	bufs := t.sh.bufs.Make(n * t.nbufs)
	for _, dst := range outPeers {
		p := t.peer(dst)
		if p.send != nil {
			continue
		}
		i := len(pr.sends)
		pr.sends = append(pr.sends, sendState{t: t, dst: int32(dst), credits: int32(t.nbufs), prep: pr,
			bufs: bufs[i*t.nbufs : i*t.nbufs : (i+1)*t.nbufs]})
		p.send = &pr.sends[i]
		for j := 0; j < t.nbufs; j++ {
			pr.remaining++
			t.handshake(p.send, maxMsg)
		}
	}
	return false
}

// peer returns node's record, nil unless a Prepare named node.
//
//rvmalint:hot
func (t *rdmaTransport) peer(node int) *rdmaPeer { return t.peers.Find(node) }

// addPeers makes the records of the nodes among nodes that have none
// yet, carved in bulk, and the endpoint's records of them likewise.
func (t *rdmaTransport) addPeers(nodes []int) {
	t.peers.Add(nodes, &t.sh.refs, &t.sh.peers)
	for _, node := range nodes {
		if p := t.peer(node); p.t == nil {
			p.t, p.node = t, int32(node)
		}
	}
	t.ep.AddPeers(nodes)
}

// BufferReady implements rdma.BufferHandler: one of the destination's
// handshakes has its buffer, and the last of its Prepare's handshakes
// finishes that Prepare.
func (st *sendState) BufferReady(rb rdma.RemoteBuffer) {
	st.bufs = append(st.bufs, rb)
	pr := st.prep
	pr.remaining--
	if pr.remaining == 0 {
		pr.finish()
	}
}

// finish marks the call's own out-neighbors ready, continues the caller
// and issues what their queues hold. An out-neighbor another Prepare
// named first becomes ready when that call finishes.
//
//rvmalint:hot
func (pr *prepare) finish() {
	t, k := pr.t, pr.k
	for i := range pr.sends {
		pr.sends[i].ready = true
		pr.sends[i].prep = nil
	}
	pr.k = nil
	k()
	for i := range pr.sends {
		t.drain(&pr.sends[i])
	}
}

// handshake runs one Figure 1 buffer negotiation for st, retried under
// the recovery policy when enabled: a timed-out request is simply
// reissued with a fresh message id. If the *reply* (not the request) was
// lost, the retry makes the target register a second buffer and the
// first leaks — the stale-registration garbage a real system would clean
// up out of band, harmless here.
func (t *rdmaTransport) handshake(st *sendState, size int) {
	if t.rec == nil {
		t.ep.NegotiateBuffer(int(st.dst), size, st)
		return
	}
	h := t.sh.handshakes.New()
	h.t, h.st, h.size = t, st, size
	t.rec.Run(&h.rec, h)
}

// Attempt implements recovery.Sender: every attempt is a fresh request.
func (h *handshake) Attempt(int) { h.t.ep.NegotiateBuffer(int(h.st.dst), h.size, h) }

// BufferReady implements rdma.BufferHandler: the first reply's buffer
// goes to the send state; a later one, the reply to a request whose
// earlier reply was only late, registered a buffer nobody uses.
func (h *handshake) BufferReady(rb rdma.RemoteBuffer) {
	if h.replied {
		return
	}
	h.replied = true
	h.st.BufferReady(rb)
	if !h.abandoned {
		h.rec.Acked()
	}
}

// Abandon implements recovery.Sender. A reply that still arrives hands
// over its buffer, but does not ack the manager's operation.
func (h *handshake) Abandon() { h.abandoned = true }

// Release implements recovery.Sender: a handshake is never reused.
func (h *handshake) Release() {}

// Send implements Transport: the message goes to the wire when a
// negotiated buffer credit is available; otherwise it queues until one
// comes back.
//
//rvmalint:hot
func (t *rdmaTransport) Send(dst, size int) {
	st := t.sendTo(dst)
	if st == nil {
		panic(fmt.Sprintf("motif: rank %d Send to unprepared dst %d", t.Rank(), dst))
	}
	st.pending++
	if st.ready && st.credits > 0 && len(st.queue) == 0 {
		t.issue(st, size)
		return
	}
	//rvmalint:allow hotalloc -- the queue keeps its capacity, so it grows only to the peak of messages waiting for a credit
	st.queue = append(st.queue, int32(size))
	t.drain(st)
}

// WaitSent implements Transport. dst's messages are counted on their own,
// and only one caller may wait on them at a time.
//
//rvmalint:hot
func (t *rdmaTransport) WaitSent(dst int, k func()) bool {
	st := t.sendTo(dst)
	if st == nil {
		panic(fmt.Sprintf("motif: rank %d WaitSent on unprepared dst %d", t.Rank(), dst))
	}
	if st.pending == 0 {
		return true
	}
	if st.drained != nil {
		panic(fmt.Sprintf("motif: rank %d has two callers waiting on sends to %d", t.Rank(), dst))
	}
	st.drained = k
	return false
}

// Sent implements rdma.SentHandler: a message to dst has completed
// locally, and once none is pending the waiting caller continues.
//
//rvmalint:hot
func (t *rdmaTransport) Sent(dst int) {
	st := t.peer(dst).send
	st.pending--
	if k := st.drained; st.pending == 0 && k != nil {
		st.drained = nil
		k()
	}
}

// sendTo returns dst's send state, nil unless a Prepare named dst an
// out-neighbor.
//
//rvmalint:hot
func (t *rdmaTransport) sendTo(dst int) *sendState {
	if p := t.peer(dst); p != nil {
		return p.send
	}
	return nil
}

// drain issues queued sends while credits last.
//
//rvmalint:hot
func (t *rdmaTransport) drain(st *sendState) {
	for st.ready && st.credits > 0 && len(st.queue) > 0 {
		size := st.queue[0]
		// Shift down in place, so later appends reuse the capacity.
		st.queue = st.queue[:copy(st.queue, st.queue[1:])]
		t.issue(st, int(size))
	}
}

// issue spends a credit on one message of the given size: a put, or
// under recovery its first attempt, whose local completion comes back
// through Sent.
//
//rvmalint:hot
func (t *rdmaTransport) issue(st *sendState, size int) {
	st.credits--
	rb := st.bufs[st.rr]
	st.rr = (st.rr + 1) % int32(len(st.bufs))

	if t.rec != nil {
		t.sendReliable(st, rb, size)
	} else {
		scheme := rdma.CompleteSendRecv
		if t.ordered {
			scheme = rdma.CompleteNone // receiver uses cumulative last-byte polling
		}
		t.ep.PutN(rb, 0, size, scheme)
	}

	// Post the receive the credit for this buffer comes back on.
	t.ep.PostRecvTo(int(st.dst), creditQP, st)
}

// Received implements rdma.RecvHandler: the receiver's credit has
// arrived, and its receive is back with the endpoint. Issue what the
// credit frees.
//
//rvmalint:hot
func (st *sendState) Received(int) {
	st.credits++
	st.t.drain(st)
}

// sendReliable issues one message under the recovery layer: an acked put,
// plus (under adaptive routing) the trailing fence send the completion
// scheme requires — itself acked and retried, with the fence ledger
// captured once so retransmits wait for exactly the bytes the original
// did. The put and the fence recover independently; the receiver's dedup
// guarantees neither double-counts bytes nor double-delivers the fence.
//
//rvmalint:hot
func (t *rdmaTransport) sendReliable(st *sendState, rb rdma.RemoteBuffer, size int) {
	s := t.newSend()
	s.rb, s.size, s.put = rb, int32(size), true
	t.rec.Run(&s.rec, s)
	if !t.ordered {
		t.reliableSend(int(st.dst), rdma.FenceQP)
	}
}

// reliableSend issues a 1-byte control send (fence or credit) under the
// recovery policy.
//
//rvmalint:hot
func (t *rdmaTransport) reliableSend(dst, qp int) {
	s := t.newSend()
	s.rb.Node, s.qp = dst, int32(qp)
	t.rec.Run(&s.rec, s)
}

// newSend takes a record from the shard's list.
//
//rvmalint:hot
func (t *rdmaTransport) newSend() *rdmaSend {
	sh := t.sh
	s := sh.idle
	if s != nil {
		sh.idle, s.next = s.next, nil
	} else {
		// A miss: records return once released, so the list grows to
		// the shard's peak of reliable operations in flight and then
		// stays.
		s = sh.rsends.New()
	}
	s.t = t
	s.rp.Owner = s
	return s
}

// Attempt implements recovery.Sender: the first attempt issues the put or
// send, later ones retransmit it.
//
//rvmalint:hot
func (s *rdmaSend) Attempt(try int) {
	ep := s.t.ep
	switch {
	case try > 0:
		ep.Retransmit(&s.rp)
	case s.put:
		ep.PutNReliable(&s.rp, s.rb, 0, int(s.size))
	default:
		ep.SendReliable(&s.rp, s.rb.Node, int(s.qp), 1)
	}
}

// Abandon implements recovery.Sender.
//
//rvmalint:hot
func (s *rdmaSend) Abandon() { s.t.ep.AbandonReliable(&s.rp) }

// Release implements recovery.Sender: the record goes back to its
// shard's list, or once the operation was sent if it was not yet.
//
//rvmalint:hot
func (s *rdmaSend) Release() {
	if !s.rp.Sent() {
		s.released = true
		return
	}
	s.free()
}

// free puts the record back on its shard's list.
//
//rvmalint:hot
func (s *rdmaSend) free() {
	sh := s.t.sh
	*s = rdmaSend{rec: s.rec, next: sh.idle}
	sh.idle = s
}

// ReliableSent implements rdma.ReliableHandler, registered once per
// transport under recovery: a put's first attempt has completed locally,
// which counts as the message's local completion, acked, abandoned or
// not; a send's is nobody's to wait for. A record the manager released
// already goes back to its list now.
//
//rvmalint:hot
func (t *rdmaTransport) ReliableSent(op *rdma.Reliable) {
	s := op.Owner.(*rdmaSend)
	put, dst := s.put, s.rb.Node
	if s.released {
		s.free()
	}
	if put {
		t.Sent(dst)
	}
}

// ReliableAcked implements rdma.ReliableHandler: the operation's ack
// completes the manager's operation.
//
//rvmalint:hot
func (t *rdmaTransport) ReliableAcked(op *rdma.Reliable) { op.Owner.(*rdmaSend).rec.Acked() }

// Recv implements Transport: observe the next message from src per the
// kind's completion scheme; the buffer credit goes back as the receive
// completes, before the caller continues. Nothing but the transport then
// holds the receive, so it goes back to the endpoint for reuse first.
//
//rvmalint:hot
func (t *rdmaTransport) Recv(src, size int, k func()) bool {
	peer := t.peer(src)
	if peer == nil || !peer.in {
		panic(fmt.Sprintf("motif: rank %d Recv from unprepared src %d", t.Rank(), src))
	}
	var recv *rdma.RecvOp
	var bytes, done *sim.Future
	if t.ordered {
		peer.consumed += uint64(size)
		bytes = t.ep.WaitBytes(src, peer.consumed)
		done = bytes
	} else {
		recv = t.ep.PostRecv(src, rdma.FenceQP)
		done = recv.Done
	}
	if done.Done() {
		peer.creditReturn()
		if recv != nil {
			t.ep.ReleaseRecv(recv)
		} else {
			t.ep.ReleaseWait(bytes)
		}
		return true
	}
	w := t.waits
	//rvmalint:allow hotalloc -- pool miss: waits return when their receive completes, so the pool grows to the peak of waiting receives and then stays; a new wait binds its callback once
	if w != nil {
		t.waits, w.next = w.next, nil
	} else {
		w = &recvWait{t: t}
		w.fire = w.received
	}
	w.peer, w.recv, w.bytes, w.k = peer, recv, bytes, k
	done.OnComplete(w.fire)
	return false
}

// dropPools releases the idle receive waits, and the shard's slab chunks
// and idle reliable-send records.
func (t *rdmaTransport) dropPools() {
	t.waits = nil
	t.sh.drop()
}

// creditReturn is the peer's credit-return continuation: a consumed
// message hands its buffer back to the sender. A lost credit wedges the
// sender forever, so under recovery it is acked and retried like any data
// message.
//
//rvmalint:hot
func (p *rdmaPeer) creditReturn() {
	if t := p.t; t.rec != nil {
		t.reliableSend(int(p.node), creditQP)
	} else {
		t.ep.Send(int(p.node), creditQP, 1)
	}
}
