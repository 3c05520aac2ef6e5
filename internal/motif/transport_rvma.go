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
	ep           *rvma.Endpoint
	ranks, depth int32
	// boxes is made by the first Prepare that names an in-neighbor.
	boxes map[int]*mailboxState
	// rel, when its manager is set, puts every Send under the recovery
	// layer's timeout/retransmit policy (acked puts instead of
	// fire-and-forget) and arms receiver-side window guards on Recv.
	rel rvmaReliable
	// rng supplies NACK-retry backoff from a rank-private stream, so the
	// backoff sequence depends only on this rank's own NACKs and survives
	// resharding.
	rng sim.RNG
	// idle lists the zeroed waits whose process has resumed, for the next
	// Recv that must wait.
	idle *recvWait
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
	local *sim.Future // the first attempt's local completion
	dst   int32
	size  int32
	done  func() // s.acked
	next  *rvmaSend
}

// recvWait is what a Recv that finds no completed message parks on. The
// completion handler pops it from the mailbox to complete it, so once the
// parked process resumes it is the wait's only holder, and Recv links the
// wait into the transport's idle list.
type recvWait struct {
	done sim.Future
	next *recvWait
}

// mailboxState tracks one in-neighbor's window and its consumption queue.
type mailboxState struct {
	win *rvma.Window
	// guard reclaims holed buffers past the sender's retry horizon
	// (non-nil only under recovery).
	guard *recovery.WindowGuard
	// available counts completed-but-unconsumed messages; waiters are
	// the futures of Recv calls parked for the next completion, FIFO.
	available int
	waiters   sim.FIFO[*sim.Future]
	maxMsg    int
}

// init makes t, a zero transport in its shard's array, rank ep.Node()'s
// transport. rec is the node's recovery manager, nil without recovery,
// and seed seeds the NACK-retry backoff stream.
func (t *rvmaTransport) init(ep *rvma.Endpoint, ranks, depth int, rec *recovery.Manager, seed uint64) {
	t.ep, t.ranks, t.depth, t.rel.rec = ep, int32(ranks), int32(depth), rec
	t.rng.Seed(seed)
	ep.SetNackHandler(t)
}

// Rank implements Transport.
func (t *rvmaTransport) Rank() int { return t.ep.Node() }

// Ranks implements Transport.
func (t *rvmaTransport) Ranks() int { return int(t.ranks) }

// Prepare implements Transport: create one window per in-neighbor and
// keep `depth` buffers posted. RVMA senders need no preparation at all —
// that is the point of virtual addressing.
func (t *rvmaTransport) Prepare(inPeers, outPeers []int, maxMsg int) *sim.Future {
	f := sim.NewFuture()
	for _, src := range inPeers {
		if _, ok := t.boxes[src]; ok {
			continue
		}
		win, err := t.ep.InitWindow(rvma.VAddr(src), 1, rvma.EpochOps)
		if err != nil {
			panic(fmt.Sprintf("motif: rank %d window for src %d: %v", t.Rank(), src, err))
		}
		box := &mailboxState{win: win, maxMsg: maxMsg}
		if t.rel.rec != nil {
			box.guard = t.rel.rec.GuardWindow(win)
		}
		if t.boxes == nil {
			t.boxes = make(map[int]*mailboxState)
		}
		t.boxes[src] = box
		for i := int32(0); i < t.depth; i++ {
			t.postOne(box)
		}
		// Observe every epoch completion: release the buffer (motifs move
		// sizes, not bytes, so it is consumed on arrival) and repost to
		// keep the posted depth constant, which reuses the released
		// buffer's memory; then hand the message to a waiting Recv (or
		// bank it). SetCompletionHandler cannot miss back-to-back
		// completions, unlike re-arming one-shot waiters.
		win.SetCompletionHandler(func(b *rvma.Buffer) {
			delivered := b.Count >= win.Threshold()
			if err := win.Release(b); err != nil {
				panic(fmt.Sprintf("motif: rank %d release: %v", t.Rank(), err))
			}
			t.postOne(box)
			if !delivered {
				// A guard reclaim (IncEpoch on a holed buffer): the buffer
				// was salvaged and reposted, but no message completed, so
				// there is nothing to deliver to a Recv.
				return
			}
			if box.waiters.Len() > 0 {
				box.waiters.Pop().Complete(t.ep.Engine(), nil)
			} else {
				box.available++
			}
		})
	}
	f.Complete(t.ep.Engine(), nil)
	return f
}

// postOne posts a buffer to the mailbox.
func (t *rvmaTransport) postOne(box *mailboxState) {
	if _, err := box.win.PostBuffer(box.maxMsg); err != nil {
		panic(fmt.Sprintf("motif: rank %d post: %v", t.Rank(), err))
	}
}

// Send implements Transport: a bare put to the receiver's mailbox for this
// sender's rank. No credit, no handshake, no completion message. If the
// receiver's mailbox is momentarily out of posted buffers the put is
// NACKed (§III-C) and the initiator retries after a backoff (Nacked) —
// the receiver stays in control of its resources, and a temporarily
// overwhelmed mailbox costs the *sender* time rather than wedging the
// receiver. The future handed back is the put's own local completion.
func (t *rvmaTransport) Send(dst, size int) *sim.Future {
	if t.rel.rec != nil {
		return t.sendReliable(dst, size)
	}
	return t.ep.PutN(dst, rvma.VAddr(t.Rank()), 0, size).Local
}

// sendReliable puts the message under the recovery layer: an acked put
// whose NACKs (closed mailbox, no posted buffer) and ack timeouts both
// feed the same bounded-backoff retransmit loop. The future handed back
// keeps Send's local-completion semantics: it is the first attempt's
// Local, which resolves when that attempt leaves the NIC, not at the ack.
//
//rvmalint:hot
func (t *rvmaTransport) sendReliable(dst, size int) *sim.Future {
	rel := &t.rel
	s := rel.idle
	if s != nil {
		rel.idle, s.next = s.next, nil
	} else {
		//rvmalint:allow hotalloc -- pool miss: records return at their put's ack or abandonment, so the pool grows to the peak of reliable puts in flight and then stays
		s = &rvmaSend{t: t}
		s.done = s.acked
	}
	s.dst, s.size = int32(dst), int32(size)
	rel.rec.Run(s)
	return s.local
}

// Attempt implements recovery.Sender: the first attempt puts the message,
// later ones retransmit it.
//
//rvmalint:hot
func (s *rvmaSend) Attempt(try int) recovery.Attempt {
	var at *rvma.PutAttempt
	if try == 0 {
		s.rp, at = s.t.ep.PutNAcked(int(s.dst), rvma.VAddr(s.t.Rank()), 0, int(s.size))
		s.local = at.Local
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

func (s *rvmaSend) free() {
	rel := &s.t.rel
	s.rp, s.local = nil, nil
	s.next, rel.idle = rel.idle, s
}

// Nacked implements rvma.NackHandler, registered once per transport: a
// NACKed put is put again after a backoff, and a NACK of the retry comes
// back here.
func (t *rvmaTransport) Nacked(op *rvma.PutOp) {
	eng := t.ep.Engine().Tag("motif")
	backoff := t.rng.Jitter(2*sim.Microsecond, 0.5)
	eng.Schedule(backoff, func() { t.ep.PutN(op.Dst(), rvma.VAddr(t.Rank()), 0, op.Size()) })
}

// Recv implements Transport: consume the next completed epoch on the
// mailbox for src. The completion was observed by the host through the
// buffer's completion pointer (the completion handler runs at the NIC's
// cell write); consuming an already-banked completion is free. A caller
// that must wait parks on a wait from the transport's idle list, which
// goes back there once the caller resumes.
//
//rvmalint:hot
func (t *rvmaTransport) Recv(p *sim.Process, src, size int) {
	box := t.boxes[src]
	if box == nil {
		panic(fmt.Sprintf("motif: rank %d Recv from unprepared src %d", t.Rank(), src))
	}
	if size > box.maxMsg {
		panic(fmt.Sprintf("motif: rank %d Recv size %d exceeds prepared max %d", t.Rank(), size, box.maxMsg))
	}
	if box.guard != nil {
		// Every expected message arms one reclaim deadline for the epoch
		// open right now; epochs that complete in time make it a no-op.
		box.guard.Expect()
	}
	if box.available > 0 {
		box.available--
		return
	}
	w := t.idle
	if w != nil {
		t.idle, w.next = w.next, nil
	} else {
		//rvmalint:allow hotalloc -- idle-list miss: a process is parked on every wait the transport made
		w = new(recvWait)
	}
	box.waiters.Push(&w.done)
	p.Wait(&w.done)
	w.done = sim.Future{}
	w.next, t.idle = t.idle, w
}

// dropPools releases the idle waits and reliable-send records.
func (t *rvmaTransport) dropPools() {
	t.idle = nil
	t.rel.idle = nil
}
