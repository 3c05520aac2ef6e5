package rvma

import (
	"errors"
	"testing"

	"rvma/internal/fabric"
)

func TestPutNAckedCompletes(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, err := dst.InitWindow(0xAA, 4096, EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := win.PostBuffer(4096); err != nil {
		t.Fatal(err)
	}
	var rp *ReliablePut
	var at *PutAttempt
	eng.Schedule(0, func() { rp, at = src.PutNAcked(1, 0xAA, 0, 4096) })
	eng.Run()
	if !at.Acked.Done() {
		t.Fatal("ack never arrived")
	}
	if at.Nack.Done() {
		t.Fatal("unexpected NACK")
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
// opened) mailbox draws a NACK that resolves the attempt's Nack future —
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
	var at *PutAttempt
	eng.Schedule(0, func() { _, at = src.PutNAcked(1, 0xAB, 0, 4096) })
	eng.Run()
	if at.Acked.Done() {
		t.Fatal("put into a closed mailbox was acked")
	}
	if !at.Nack.Done() {
		t.Fatal("NACK never resolved")
	}
	if err, _ := at.Nack.Value().(error); !errors.Is(err, ErrNoWindow) {
		t.Fatalf("nack reason = %v, want ErrNoWindow", at.Nack.Value())
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
	var rp *ReliablePut
	var first, second *PutAttempt
	eng.Schedule(0, func() { rp, first = src.PutNAcked(1, 0xAC, 0, 4096) })
	eng.Schedule(0, func() {
		first.Nack.OnComplete(func() {
			if err, _ := first.Nack.Value().(error); !errors.Is(err, ErrNoBuffer) {
				t.Errorf("nack reason = %v, want ErrNoBuffer", first.Nack.Value())
			}
			if _, err := win.PostBuffer(4096); err != nil {
				t.Errorf("post: %v", err)
				return
			}
			second = src.Retransmit(rp)
		})
	})
	eng.Run()
	if second == nil || !second.Acked.Done() {
		t.Fatal("retransmit after buffer post was not acked")
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
		rp, _ := src.PutNAcked(1, 0xAD, 0, 4096)
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
	var rp *ReliablePut
	var at *PutAttempt
	eng.Schedule(0, func() {
		rp, at = src.PutNAcked(1, 0xAE, 0, 4096)
		src.AbandonPut(rp) // give up before the ack returns
	})
	eng.Run()
	if at.Acked.Done() {
		t.Fatal("abandoned op's attempt was still acked")
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
