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
	// rel, when its manager is set, puts every Send under the recovery
	// layer's timeout/retransmit policy (acked puts instead of
	// fire-and-forget) and arms receiver-side window guards on Recv.
	rel rvmaReliable
	// rng supplies NACK-retry backoff from a rank-private stream, so the
	// backoff sequence depends only on this rank's own NACKs and survives
	// resharding.
	rng sim.RNG
	// sending holds the pending WaitSent waits, oldest first.
	sending       sim.FIFO[sentWait]
	puts, lastMsg uint32
}

// rvmaReliable is a transport's recovery state: its node's manager, nil
// without recovery, and the reliable-send records no operation is using.
type rvmaReliable struct {
	rec  *recovery.Manager
	idle *rvmaSend
}

// rvmaSend is one message under the recovery layer: the recovery.Sender
// whose attempts are the reliable put's. It is pooled per transport and
// goes back to the pool once the put is acked or abandoned, after which
// the manager calls nothing on it.
type rvmaSend struct {
	t     *rvmaTransport
	rp    *rvma.ReliablePut
	dst   int32
	size  int32
	done  func() // s.acked
	local func() // s.sent, run at the first attempt's local completion
	next  *rvmaSend
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
// transport. rec is the node's recovery manager, nil without recovery,
// and seed seeds the NACK-retry backoff stream.
func (t *rvmaTransport) init(ep *rvma.Endpoint, depth int, rec *recovery.Manager, seed uint64) {
	t.ep, t.depth, t.rel.rec = ep, int32(depth), rec
	t.rng.Seed(seed)
	ep.SetNackHandler(t)
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
	if t.rel.rec != nil {
		guards = t.rel.rec.GuardWindows(wins)
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
	if t.rel.rec != nil {
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
	t.sending.Push(sentWait{k: k, target: t.lastMsg})
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
	rel := &t.rel
	s := rel.idle
	if s != nil {
		rel.idle, s.next = s.next, nil
	} else {
		//rvmalint:allow hotalloc -- pool miss: records return at their put's ack or abandonment, so the pool grows to the peak of reliable puts in flight and then stays
		s = &rvmaSend{t: t}
		s.done, s.local = s.acked, s.sent
	}
	s.dst, s.size = int32(dst), int32(size)
	rel.rec.Run(s)
}

// Attempt implements recovery.Sender: the first attempt puts the message,
// later ones retransmit it.
//
//rvmalint:hot
func (s *rvmaSend) Attempt(try int) recovery.Attempt {
	var at *rvma.PutAttempt
	if try == 0 {
		s.rp, at = s.t.ep.PutNAcked(int(s.dst), rvma.VAddr(s.t.Rank()), 0, int(s.size))
		at.Local.OnComplete(s.local)
	} else {
		at = s.t.ep.Retransmit(s.rp)
	}
	at.Acked.OnComplete(s.done)
	return recovery.Attempt{Acked: at.Acked, Nack: at.Nack}
}

// Abandon implements recovery.Sender.
func (s *rvmaSend) Abandon() {
	s.t.ep.AbandonPut(s.rp)
	s.free()
}

// acked runs at the put's ack: the manager is done with the record.
//
//rvmalint:hot
func (s *rvmaSend) acked() { s.free() }

// sent runs at the first attempt's local completion, which comes before
// its ack and any abandonment, so the record is still this message's.
//
//rvmalint:hot
func (s *rvmaSend) sent() { s.t.Sent(int(s.dst)) }

func (s *rvmaSend) free() {
	rel := &s.t.rel
	s.rp = nil
	s.next, rel.idle = rel.idle, s
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
	box.waiters.Push(k)
	return false
}

// dropPools releases the send-wait queue's ring, once nothing waits in
// it, and the idle reliable-send records.
func (t *rvmaTransport) dropPools() {
	if t.sending.Len() == 0 {
		t.sending = sim.FIFO[sentWait]{}
	}
	t.rel.idle = nil
}
