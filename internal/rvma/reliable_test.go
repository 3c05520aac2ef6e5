package rvma

import (
	"errors"
	"testing"

	"rvma/internal/fabric"
)

// putLog is a ReliableHandler that counts what the endpoint reports of
// each reliable put; onAck and onNack, when set, run at each ack and NACK
// reported.
type putLog struct {
	sent, acked map[*ReliablePut]int
	nacks       map[*ReliablePut][]error
	onAck       func(rp *ReliablePut)
	onNack      func(rp *ReliablePut)
}

func newPutLog(ep *Endpoint) *putLog {
	l := &putLog{sent: map[*ReliablePut]int{}, acked: map[*ReliablePut]int{}, nacks: map[*ReliablePut][]error{}}
	ep.SetReliableHandler(l)
	return l
}

func (l *putLog) ReliableSent(rp *ReliablePut) { l.sent[rp]++ }
func (l *putLog) ReliableAcked(rp *ReliablePut) {
	l.acked[rp]++
	if l.onAck != nil {
		l.onAck(rp)
	}
}
func (l *putLog) ReliableNacked(rp *ReliablePut, reason error) {
	l.nacks[rp] = append(l.nacks[rp], reason)
	if l.onNack != nil {
		l.onNack(rp)
	}
}

func TestPutNAckedCompletes(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, err := dst.InitWindow(0xAA, 4096, EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := win.PostBuffer(4096); err != nil {
		t.Fatal(err)
	}
	log := newPutLog(src)
	rp := new(ReliablePut)
	eng.Schedule(0, func() { src.PutNAcked(rp, 1, 0xAA, 0, 4096) })
	eng.Run()
	if log.sent[rp] != 1 || log.acked[rp] != 1 {
		t.Fatalf("put reported sent %d times and acked %d times, want once each", log.sent[rp], log.acked[rp])
	}
	if len(log.nacks[rp]) != 0 {
		t.Fatalf("unexpected NACKs %v", log.nacks[rp])
	}
	if dst.Stats.AcksSent != 1 || dst.Stats.PutsPlaced != 1 || win.Epoch() != 1 {
		t.Fatalf("acks=%d placed=%d epoch=%d", dst.Stats.AcksSent, dst.Stats.PutsPlaced, win.Epoch())
	}
	if !retransmitPanics(src, rp) {
		t.Fatal("the acked put is still live: Retransmit did not panic")
	}
}

// retransmitPanics reports whether Retransmit refuses rp, which it does
// exactly when rp is no longer live (acked or abandoned).
func retransmitPanics(ep *Endpoint, rp *ReliablePut) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	ep.Retransmit(rp)
	return false
}

// TestClosedMailboxResolvesNack: a reliable put into a closed (or never
// opened) mailbox draws NACKs, the first of which the handler learns of —
// the signal the recovery layer retries on.
func TestClosedMailboxResolvesNack(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, err := dst.InitWindow(0xAB, 4096, EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := win.PostBuffer(4096); err != nil {
		t.Fatal(err)
	}
	win.Close()
	log := newPutLog(src)
	rp := new(ReliablePut)
	eng.Schedule(0, func() { src.PutNAcked(rp, 1, 0xAB, 0, 4096) })
	eng.Run()
	if log.acked[rp] != 0 {
		t.Fatal("put into a closed mailbox was acked")
	}
	if nacks := log.nacks[rp]; len(nacks) != 1 || !errors.Is(nacks[0], ErrNoWindow) {
		t.Fatalf("NACKs reported %v, want one ErrNoWindow for the attempt", nacks)
	}
}

// TestNoBufferNackThenRetransmitCompletes: a reliable put that finds no
// posted buffer is NACKed but stays live; once the receiver posts a
// buffer, a retransmit of the same operation completes and is acked —
// the end-to-end NACK-driven recovery loop, driven by hand here (the
// recovery.Manager automates exactly these calls).
func TestNoBufferNackThenRetransmitCompletes(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, err := dst.InitWindow(0xAC, 4096, EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	log := newPutLog(src)
	rp := new(ReliablePut)
	log.onNack = func(rp *ReliablePut) {
		// A straggler NACK of the first attempt's later packets can reach
		// the retransmit too; only the first one acts.
		if len(log.nacks[rp]) > 1 {
			return
		}
		if err := log.nacks[rp][0]; !errors.Is(err, ErrNoBuffer) {
			t.Errorf("nack reason = %v, want ErrNoBuffer", err)
		}
		if _, err := win.PostBuffer(4096); err != nil {
			t.Errorf("post: %v", err)
			return
		}
		src.Retransmit(rp)
	}
	eng.Schedule(0, func() { src.PutNAcked(rp, 1, 0xAC, 0, 4096) })
	eng.Run()
	if len(log.nacks[rp]) == 0 || log.acked[rp] != 1 {
		t.Fatalf("%d NACKs and %d acks reported, want the first attempt NACKed and the retransmit acked",
			len(log.nacks[rp]), log.acked[rp])
	}
	if win.Epoch() != 1 || dst.Stats.PutsPlaced != 1 {
		t.Fatalf("epoch=%d placed=%d, want 1/1", win.Epoch(), dst.Stats.PutsPlaced)
	}
	// Every packet of the bufferless first attempt drew its own NACK.
	wantNacks := uint64((4096 + fabric.DefaultConfig().MTU - 1) / fabric.DefaultConfig().MTU)
	if dst.Stats.Nacks != wantNacks {
		t.Fatalf("nacks = %d, want %d (one per rejected packet)", dst.Stats.Nacks, wantNacks)
	}
}

// TestRetransmitDuplicatesAreDiscarded overlaps two attempts of the same
// message on a lossless fabric: every packet of the second attempt is a
// duplicate and must not inflate placement counts, epochs or high-water
// marks — only re-trigger the ack.
func TestRetransmitDuplicatesAreDiscarded(t *testing.T) {
	fcfg := fabric.DefaultConfig()
	eng, src, dst := pair(t, DefaultConfig(), fcfg, 1)
	win, err := dst.InitWindow(0xAD, 4096, EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Two buffers: the first attempt completes the epoch and rotates to
	// the second, so the duplicate packets still find a head buffer and
	// reach the dedup (instead of being rejected for lack of one).
	for i := 0; i < 2; i++ {
		if _, err := win.PostBuffer(4096); err != nil {
			t.Fatal(err)
		}
	}
	wantPkts := uint64((4096 + fcfg.MTU - 1) / fcfg.MTU)
	eng.Schedule(0, func() {
		rp := new(ReliablePut)
		src.PutNAcked(rp, 1, 0xAD, 0, 4096)
		src.Retransmit(rp) // immediately double-send the whole message
	})
	eng.Run()
	if dst.Stats.DupPackets != wantPkts {
		t.Fatalf("dup packets = %d, want %d", dst.Stats.DupPackets, wantPkts)
	}
	if dst.Stats.PutsPlaced != 1 || win.Epoch() != 1 {
		t.Fatalf("placed=%d epoch=%d, want exactly one completion", dst.Stats.PutsPlaced, win.Epoch())
	}
	if dst.Stats.AcksSent < 2 {
		t.Fatalf("acks = %d, want completion ack plus straggler re-ack", dst.Stats.AcksSent)
	}
}

// TestAbandonPutRetiresOperation: after the recovery layer gives up, a
// straggler ack must find nothing to resolve.
func TestAbandonPutRetiresOperation(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, err := dst.InitWindow(0xAE, 4096, EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := win.PostBuffer(4096); err != nil {
		t.Fatal(err)
	}
	log := newPutLog(src)
	rp := new(ReliablePut)
	eng.Schedule(0, func() {
		src.PutNAcked(rp, 1, 0xAE, 0, 4096)
		src.AbandonPut(rp) // give up before the ack returns
	})
	eng.Run()
	if log.acked[rp] != 0 {
		t.Fatal("abandoned op was still acked")
	}
	if !retransmitPanics(src, rp) {
		t.Fatal("the abandoned put is still live: Retransmit did not panic")
	}
	// The receiver still placed and acked the message; the ack just found
	// the operation no longer live.
	if dst.Stats.PutsPlaced != 1 || dst.Stats.AcksSent != 1 {
		t.Fatalf("placed=%d acks=%d", dst.Stats.PutsPlaced, dst.Stats.AcksSent)
	}
}

// A record reused for the next put is not resolved by a late ack of the
// one before: the first put is retransmitted at once, so the target
// re-acks its duplicates after the first ack, by which time the record
// runs a put to a mailbox that does not exist, which is never acked.
func TestReliableRecordReuseIgnoresStaleAcks(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, err := dst.InitWindow(0xAF, 4096, EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := win.PostBuffer(4096); err != nil {
			t.Fatal(err)
		}
	}
	log := newPutLog(src)
	rp := new(ReliablePut)
	reused := false
	log.onAck = func(rp *ReliablePut) {
		if !reused {
			reused = true
			src.PutNAcked(rp, 1, 0xB0, 0, 4096)
		}
	}
	eng.Schedule(0, func() {
		src.PutNAcked(rp, 1, 0xAF, 0, 4096)
		src.Retransmit(rp)
	})
	eng.Run()
	if dst.Stats.AcksSent < 2 {
		t.Fatalf("target sent %d acks, want the completion ack plus a duplicate re-ack", dst.Stats.AcksSent)
	}
	if log.acked[rp] != 1 || rp.attempt == nil {
		t.Fatalf("record reported acked %d times, live %v; want the first put acked and the second live",
			log.acked[rp], rp.attempt != nil)
	}
}

// A straggler NACK of an abandoned put does not reach the next put on the
// reused record: every packet of a put into a mailbox with no posted
// buffer draws a NACK, and at the first the caller abandons the put and
// reuses the record for a put to a healthy mailbox, so the rest of the
// NACKs arrive while the record runs a live put they do not name.
func TestReliableRecordReuseIgnoresStaleNacks(t *testing.T) {
	eng, src, dst := defaultPair(t)
	if _, err := dst.InitWindow(0xB2, 4096, EpochBytes); err != nil {
		t.Fatal(err)
	}
	healthy, err := dst.InitWindow(0xB3, 4096, EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := healthy.PostBuffer(4096); err != nil {
		t.Fatal(err)
	}
	log := newPutLog(src)
	rp := new(ReliablePut)
	reused := false
	log.onNack = func(rp *ReliablePut) {
		if reused {
			t.Errorf("a NACK reached the reused record's put to a healthy mailbox")
			return
		}
		reused = true
		src.AbandonPut(rp)
		src.PutNAcked(rp, 1, 0xB3, 0, 4096)
	}
	eng.Schedule(0, func() { src.PutNAcked(rp, 1, 0xB2, 0, 4096) })
	eng.Run()
	wantNacks := uint64((4096 + fabric.DefaultConfig().MTU - 1) / fabric.DefaultConfig().MTU)
	if wantNacks < 2 || dst.Stats.Nacks != wantNacks {
		t.Fatalf("target sent %d NACKs, want %d (>= 2): one per packet of the first put", dst.Stats.Nacks, wantNacks)
	}
	if len(log.nacks[rp]) != 1 || log.acked[rp] != 1 || log.sent[rp] != 2 {
		t.Fatalf("record reported %d NACKs, %d acks and %d local completions; want the first put's one NACK, the second put's ack and one completion each",
			len(log.nacks[rp]), log.acked[rp], log.sent[rp])
	}
}

// A record whose put was abandoned before its first attempt left the NIC
// is not the caller's to reuse: the endpoint has its local completion
// still to report, and refuses another put on it until it has.
func TestReliableRecordReuseWaitsForLocalCompletion(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, err := dst.InitWindow(0xB4, 4096, EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := win.PostBuffer(4096); err != nil {
		t.Fatal(err)
	}
	log := newPutLog(src)
	rp := new(ReliablePut)
	var refused, sentAtAbandon bool
	eng.Schedule(0, func() {
		src.PutNAcked(rp, 1, 0xB4, 0, 4096)
		src.AbandonPut(rp)
		sentAtAbandon = rp.Sent()
		func() {
			defer func() { refused = recover() != nil }()
			src.PutNAcked(rp, 1, 0xB4, 0, 4096)
		}()
	})
	eng.Run()
	if sentAtAbandon || !refused {
		t.Fatalf("at abandonment Sent()=%v and reuse refused=%v, want false and true", sentAtAbandon, refused)
	}
	if log.sent[rp] != 1 || !rp.Sent() {
		t.Fatalf("abandoned put reported sent %d times, Sent()=%v after the run; want once and true", log.sent[rp], rp.Sent())
	}
}
