package motif

import (
	"fmt"

	"rvma/internal/recovery"
	"rvma/internal/rvma"
	"rvma/internal/sim"
)

// rvmaTransport maps each in-neighbor to one mailbox (virtual address =
// the sender's rank), configured as an EPOCH_OPS window with threshold 1:
// the number of operations per message is known a priori (exactly one),
// which is the case the paper's Sweep3D analysis highlights — "the number
// of expected incoming operations is known a priori" (§V-B1).
//
// The transport keeps `depth` buffers posted per mailbox and reposts on
// every completion, which is precisely the pattern RVMA_Win_get_epoch is
// designed for ("system software may want to guarantee that a constant
// number of buffers are always posted", §III-C). Senders never wait for
// anything: receiver-managed buffering removes all per-message
// coordination.
type rvmaTransport struct {
	ep    *rvma.Endpoint
	depth int32
	// putsSent and, below, puts and lastMsg are WaitSent's counters: puts
	// counts the puts this transport has issued, NACK retries included,
	// and putsSent their local completions so far, which come in issue
	// order. lastMsg is puts as of the latest Send: once putsSent reaches
	// it, every message sent so far has left the NIC. Under recovery only
	// first attempts count, so a retransmit is never waited for. The
	// counters wrap; they are compared by difference.
	putsSent uint32
	// boxes is made by the first Prepare that names an in-neighbor.
	boxes map[int]*mailbox
	// rec, when set, puts every Send under the recovery layer's
	// timeout/retransmit policy (acked puts instead of fire-and-forget)
	// and arms receiver-side window guards on Recv.
	rec *recovery.Manager
	// sh holds the reliable-send records the transport shares with the
	// others on its shard.
	sh *rvmaShard
	// rng supplies NACK-retry backoff from a rank-private stream, so the
	// backoff sequence depends only on this rank's own NACKs and survives
	// resharding.
	rng sim.RNG
	// sending holds the pending WaitSent waits, oldest first.
	sending       sim.FIFO[sentWait]
	puts, lastMsg uint32
}

// rvmaShard is what the RVMA transports of one shard share: the
// reliable-send records no message is using, the slab the list is
// refilled from, a chunk at a time, and the slabs the transports' and
// mailboxes' wait queues take their first rings from (sim.FIFO.PushIn):
// most never hold more than a few waits. Cluster.Run drops them with the
// other pools.
type rvmaShard struct {
	sends     sim.Slab[rvmaSend]
	idle      *rvmaSend
	sentRings sim.Slab[sentWait]
	waitRings sim.Slab[func()]
}

// drop lets the idle records and the slabs' chunks go.
func (sh *rvmaShard) drop() {
	sh.sends.Drop()
	sh.idle = nil
	sh.sentRings.Drop()
	sh.waitRings.Drop()
}

// held reports whether a slab holds a chunk or the list an idle record.
func (sh *rvmaShard) held() bool {
	return sh.sends.Held() || sh.idle != nil || sh.sentRings.Held() || sh.waitRings.Held()
}

// rvmaSend is one message under the recovery layer: the recovery.Sender
// whose attempts are the reliable put's. It embeds the put's handle and
// the manager's record, so the endpoint's report of the put reaches both
// through the handle's Owner, and one record is all a message costs. It
// goes back to its shard's list once the manager releases it (the put was
// acked or abandoned and no deadline or retry names it) and the put's
// first attempt has left the NIC, whichever comes last: a put abandoned
// while still queued at the NIC has its local completion yet to report.
type rvmaSend struct {
	rp       rvma.ReliablePut
	rec      recovery.Op
	t        *rvmaTransport
	dst      int32
	size     int32
	released bool // the manager released the record before the put was sent
	next     *rvmaSend
}

// sentWait is a WaitSent that finds a message not yet sent: the caller's
// continuation and the putsSent that releases it.
type sentWait struct {
	k      func()
	target uint32
}

// mailbox tracks one in-neighbor's window and its consumption queue. A
// Prepare makes its mailboxes in one array, and each is its window's
// completion observer.
type mailbox struct {
	t   *rvmaTransport
	win *rvma.Window
	// guard reclaims holed buffers past the sender's retry horizon
	// (non-nil only under recovery).
	guard *recovery.WindowGuard
	// waiters are the continuations of Recv calls waiting for the next
	// completion, FIFO; available counts completed-but-unconsumed
	// messages.
	waiters   sim.FIFO[func()]
	available int32
	maxMsg    int32
}

// init makes t, a zero transport in its shard's array, rank ep.Node()'s
// transport. sh is its shard's record, rec the node's recovery manager,
// nil without recovery, and seed seeds the NACK-retry backoff stream.
func (t *rvmaTransport) init(ep *rvma.Endpoint, sh *rvmaShard, depth int, rec *recovery.Manager, seed uint64) {
	t.ep, t.sh, t.depth, t.rec = ep, sh, int32(depth), rec
	t.rng.Seed(seed)
	ep.SetNackHandler(t)
	if rec != nil {
		ep.SetReliableHandler(t)
	}
}

// Rank implements Transport.
func (t *rvmaTransport) Rank() int { return t.ep.Node() }

// Ranks implements Transport: every node of the network runs a rank.
func (t *rvmaTransport) Ranks() int { return t.ep.NIC().Network().Topology().NumNodes() }

// Prepare implements Transport: create one window per in-neighbor and
// keep `depth` buffers posted. RVMA senders need no preparation at all —
// that is the point of virtual addressing — so setup is done when the
// call returns. The mailboxes, their windows and their buffers are built
// in bulk, a few arrays per call.
func (t *rvmaTransport) Prepare(inPeers, _ []int, maxMsg int, _ func()) bool {
	t.openMailboxes(inPeers, maxMsg)
	return true
}

// openMailboxes opens a mailbox for each of srcs that has none yet.
func (t *rvmaTransport) openMailboxes(srcs []int, maxMsg int) {
	n := 0
	for _, src := range srcs {
		if t.boxes[src] == nil {
			n++
		}
	}
	if n == 0 {
		return
	}
	if t.boxes == nil {
		t.boxes = make(map[int]*mailbox, n)
	}
	boxes := make([]mailbox, 0, n)
	vaddrs := make([]rvma.VAddr, 0, n)
	for _, src := range srcs {
		if t.boxes[src] != nil {
			continue
		}
		boxes = append(boxes, mailbox{t: t, maxMsg: int32(maxMsg)})
		t.boxes[src] = &boxes[len(boxes)-1]
		vaddrs = append(vaddrs, rvma.VAddr(src))
	}
	wins, err := t.ep.InitWindows(vaddrs, 1, rvma.EpochOps, int(t.depth), maxMsg)
	if err != nil {
		panic(fmt.Sprintf("motif: rank %d windows: %v", t.Rank(), err))
	}
	var guards []recovery.WindowGuard
	if t.rec != nil {
		guards = t.rec.GuardWindows(wins)
	}
	for i := range boxes {
		box := &boxes[i]
		box.win = &wins[i]
		if guards != nil {
			box.guard = &guards[i]
		}
		box.win.SetCompletionObserver(box)
	}
}

// Completed implements rvma.CompletionObserver: at every epoch completion
// the mailbox releases the buffer (motifs move sizes, not bytes, so it is
// consumed on arrival) and reposts to keep the posted depth constant,
// which reuses the released buffer's memory; then it hands the message to
// a waiting Recv (or banks it). An observer cannot miss back-to-back
// completions, unlike re-arming one-shot waiters.
//
//rvmalint:hot
func (box *mailbox) Completed(b *rvma.Buffer) {
	t, win := box.t, box.win
	delivered := b.Count >= win.Threshold()
	if err := win.Release(b); err != nil {
		panic(fmt.Sprintf("motif: rank %d release: %v", t.Rank(), err))
	}
	t.postOne(box)
	if !delivered {
		// A guard reclaim (IncEpoch on a holed buffer): the buffer was
		// salvaged and reposted, but no message completed, so there is
		// nothing to deliver to a Recv.
		return
	}
	if box.waiters.Len() > 0 {
		box.waiters.Pop()()
	} else {
		box.available++
	}
}

// postOne posts a buffer to the mailbox.
func (t *rvmaTransport) postOne(box *mailbox) {
	if _, err := box.win.PostBuffer(int(box.maxMsg)); err != nil {
		panic(fmt.Sprintf("motif: rank %d post: %v", t.Rank(), err))
	}
}

// Send implements Transport: a bare put to the receiver's mailbox for this
// sender's rank. No credit, no handshake, no completion message. If the
// receiver's mailbox is momentarily out of posted buffers the put is
// NACKed (§III-C) and the initiator retries after a backoff (Nacked) —
// the receiver stays in control of its resources, and a temporarily
// overwhelmed mailbox costs the *sender* time rather than wedging the
// receiver.
//
//rvmalint:hot
func (t *rvmaTransport) Send(dst, size int) {
	t.puts++
	t.lastMsg = t.puts
	if t.rec != nil {
		t.sendReliable(dst, size)
		return
	}
	t.ep.PutN(dst, rvma.VAddr(t.Rank()), 0, size)
}

// WaitSent implements Transport. Puts complete locally in the order they
// were issued, so the caller waits for the latest Send's put: by then
// every message sent so far, dst's included, has left the NIC.
//
//rvmalint:hot
func (t *rvmaTransport) WaitSent(_ int, k func()) bool {
	if int32(t.lastMsg-t.putsSent) <= 0 {
		return true
	}
	t.sending.PushIn(&t.sh.sentRings, sentWait{k: k, target: t.lastMsg})
	return false
}

// Sent implements rvma.NackHandler: a put has completed locally, and the
// waits it releases continue, oldest first.
//
//rvmalint:hot
func (t *rvmaTransport) Sent(int) {
	t.putsSent++
	for t.sending.Len() > 0 && int32(t.sending.Front().target-t.putsSent) <= 0 {
		t.sending.Pop().k()
	}
}

// sendReliable puts the message under the recovery layer: an acked put
// whose NACKs (closed mailbox, no posted buffer) and ack timeouts both
// feed the same bounded-backoff retransmit loop. The first attempt's
// local completion counts as the message's, as a plain put's does; a
// retransmit's is nobody's to wait for.
//
//rvmalint:hot
func (t *rvmaTransport) sendReliable(dst, size int) {
	sh := t.sh
	s := sh.idle
	if s != nil {
		sh.idle, s.next = s.next, nil
	} else {
		// A miss: records return once released, so the list grows to
		// the shard's peak of reliable puts in flight and then stays.
		s = sh.sends.New()
	}
	s.t, s.dst, s.size = t, int32(dst), int32(size)
	s.rp.Owner = s
	t.rec.Run(&s.rec, s)
}

// Attempt implements recovery.Sender: the first attempt puts the message,
// later ones retransmit it.
//
//rvmalint:hot
func (s *rvmaSend) Attempt(try int) {
	if try == 0 {
		s.t.ep.PutNAcked(&s.rp, int(s.dst), rvma.VAddr(s.t.Rank()), 0, int(s.size))
		return
	}
	s.t.ep.Retransmit(&s.rp)
}

// Abandon implements recovery.Sender.
//
//rvmalint:hot
func (s *rvmaSend) Abandon() { s.t.ep.AbandonPut(&s.rp) }

// Release implements recovery.Sender: the record goes back to its
// shard's list, or once the put was sent if it was not yet.
//
//rvmalint:hot
func (s *rvmaSend) Release() {
	if !s.rp.Sent() {
		s.released = true
		return
	}
	s.free()
}

// free puts the record back on its shard's list.
//
//rvmalint:hot
func (s *rvmaSend) free() {
	sh := s.t.sh
	*s = rvmaSend{rec: s.rec, next: sh.idle}
	sh.idle = s
}

// ReliableSent implements rvma.ReliableHandler, registered once per
// transport under recovery: a message's first attempt has completed
// locally, which counts as the message's local completion, acked,
// abandoned or not. A record the manager released already goes back to
// its list now.
//
//rvmalint:hot
func (t *rvmaTransport) ReliableSent(rp *rvma.ReliablePut) {
	s := rp.Owner.(*rvmaSend)
	dst := int(s.dst)
	if s.released {
		s.free()
	}
	t.Sent(dst)
}

// ReliableAcked implements rvma.ReliableHandler: the put's ack completes
// the manager's operation.
//
//rvmalint:hot
func (t *rvmaTransport) ReliableAcked(rp *rvma.ReliablePut) { rp.Owner.(*rvmaSend).rec.Acked() }

// ReliableNacked implements rvma.ReliableHandler: the current attempt's
// NACK cuts it short.
//
//rvmalint:hot
func (t *rvmaTransport) ReliableNacked(rp *rvma.ReliablePut, _ error) {
	rp.Owner.(*rvmaSend).rec.Nacked()
}

// Nacked implements rvma.NackHandler, registered once per transport: a
// NACKed put is put again after a backoff, and a NACK of the retry comes
// back here. The retry is no message of the caller's, so WaitSent does
// not wait for it.
func (t *rvmaTransport) Nacked(dst, size int) {
	eng := t.ep.Engine().Tag("motif")
	backoff := t.rng.Jitter(2*sim.Microsecond, 0.5)
	eng.Schedule(backoff, func() {
		t.puts++
		t.ep.PutN(dst, rvma.VAddr(t.Rank()), 0, size)
	})
}

// Recv implements Transport: consume the next completed epoch on the
// mailbox for src. The completion was observed by the host through the
// buffer's completion pointer (the completion handler runs at the NIC's
// cell write); consuming an already-banked completion is free. A caller
// that must wait queues its continuation on the mailbox, whose next
// completion pops and runs it.
//
//rvmalint:hot
func (t *rvmaTransport) Recv(src, size int, k func()) bool {
	box := t.boxes[src]
	if box == nil {
		panic(fmt.Sprintf("motif: rank %d Recv from unprepared src %d", t.Rank(), src))
	}
	if size > int(box.maxMsg) {
		panic(fmt.Sprintf("motif: rank %d Recv size %d exceeds prepared max %d", t.Rank(), size, box.maxMsg))
	}
	if box.guard != nil {
		// Every expected message arms one reclaim deadline for the epoch
		// open right now; epochs that complete in time make it a no-op.
		box.guard.Expect()
	}
	if box.available > 0 {
		box.available--
		return true
	}
	box.waiters.PushIn(&t.sh.waitRings, k)
	return false
}

// dropPools releases the send-wait queue's ring, once nothing waits in
// it, and the shard's idle reliable-send records.
func (t *rvmaTransport) dropPools() {
	if t.sending.Len() == 0 {
		t.sending = sim.FIFO[sentWait]{}
	}
	t.sh.drop()
}
