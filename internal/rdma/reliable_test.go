package rdma

import (
	"testing"

	"rvma/internal/sim"
)

// reliableKinds starts one reliable operation of each kind from src to
// node 1 on op: an acked put into rb, and an acked fence-QP send (dst
// posts the receive it consumes).
func reliableKinds(t *testing.T, eng *sim.Engine, src, dst *Endpoint) []struct {
	name  string
	start func(op *Reliable)
} {
	rb := handshake(t, eng, src, 1, 4096)
	return []struct {
		name  string
		start func(op *Reliable)
	}{
		{"put", func(op *Reliable) { src.PutNReliable(op, rb, 0, 4096) }},
		{"send", func(op *Reliable) {
			dst.PostRecv(0, FenceQP)
			src.SendReliable(op, 1, FenceQP, 4096)
		}},
	}
}

// ackLog is a ReliableHandler that counts what the endpoint reports of
// each reliable operation; onAck, when set, runs at each ack reported.
type ackLog struct {
	sent, acked map[*Reliable]int
	onAck       func(op *Reliable)
}

func newAckLog(ep *Endpoint) *ackLog {
	l := &ackLog{sent: map[*Reliable]int{}, acked: map[*Reliable]int{}}
	ep.SetReliableHandler(l)
	return l
}

func (l *ackLog) ReliableSent(op *Reliable) { l.sent[op]++ }
func (l *ackLog) ReliableAcked(op *Reliable) {
	l.acked[op]++
	if l.onAck != nil {
		l.onAck(op)
	}
}

// retransmitPanics reports whether Retransmit refuses op, which it does
// exactly when op is no longer live (acked or abandoned).
func retransmitPanics(ep *Endpoint, op *Reliable) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	ep.Retransmit(op)
	return false
}

// An ack names the operation's attempt, and resolves the operation: when
// a retransmit went out before the first attempt's ack returned, that ack
// resolves the operation, whose current attempt is the second, and the
// re-ack the duplicates draw resolves nothing.
func TestReliableAckResolvesCurrentAttempt(t *testing.T) {
	eng, src, dst := defaultPair(t)
	log := newAckLog(src)
	for _, k := range reliableKinds(t, eng, src, dst) {
		t.Run(k.name, func(t *testing.T) {
			acks := dst.Stats.AcksSent
			op := new(Reliable)
			eng.Schedule(0, func() {
				k.start(op)
				src.Retransmit(op)
			})
			eng.Run()
			if log.acked[op] != 1 || log.sent[op] != 1 || op.current != nil {
				t.Fatalf("operation reported acked %d times and sent %d times, live %v; want acked and sent once",
					log.acked[op], log.sent[op], op.current != nil)
			}
			if got := dst.Stats.AcksSent - acks; got < 2 {
				t.Fatalf("target sent %d acks, want the completion ack plus a duplicate re-ack", got)
			}
		})
	}
}

// After AbandonReliable, the target still completes and acks the message,
// but the straggler ack resolves nothing, and the operation cannot be
// retransmitted.
func TestReliableStragglerAckAfterAbandon(t *testing.T) {
	eng, src, dst := defaultPair(t)
	log := newAckLog(src)
	for _, k := range reliableKinds(t, eng, src, dst) {
		t.Run(k.name, func(t *testing.T) {
			acks := dst.Stats.AcksSent
			op := new(Reliable)
			eng.Schedule(0, func() {
				k.start(op)
				src.AbandonReliable(op) // give up before the ack returns
			})
			eng.Run()
			if dst.Stats.AcksSent-acks != 1 {
				t.Fatalf("target sent %d acks, want 1", dst.Stats.AcksSent-acks)
			}
			if log.acked[op] != 0 {
				t.Fatal("the straggler ack resolved an abandoned operation")
			}
			if !retransmitPanics(src, op) {
				t.Fatal("Retransmit of an abandoned operation did not panic")
			}
		})
	}
}

// Once acked, an operation is done: retransmitting it panics.
func TestReliableRetransmitAfterAckPanics(t *testing.T) {
	eng, src, dst := defaultPair(t)
	log := newAckLog(src)
	for _, k := range reliableKinds(t, eng, src, dst) {
		t.Run(k.name, func(t *testing.T) {
			op := new(Reliable)
			eng.Schedule(0, func() { k.start(op) })
			eng.Run()
			if log.acked[op] != 1 {
				t.Fatal("ack never arrived")
			}
			if !retransmitPanics(src, op) {
				t.Fatal("Retransmit of an acked operation did not panic")
			}
		})
	}
}

// A record reused for the next operation is not resolved by a late ack of
// the one before: the first operation is retransmitted at once, so the
// target re-acks its duplicates after the first ack, by which time the
// record runs a put that the target drops for its unknown rkey and never
// acks.
func TestReliableRecordReuseIgnoresStaleAcks(t *testing.T) {
	eng, src, dst := defaultPair(t)
	log := newAckLog(src)
	rb := handshake(t, eng, src, 1, 4096)
	bogus := rb
	bogus.RKey += 100
	op := new(Reliable)
	log.onAck = func(op *Reliable) {
		if log.acked[op] == 1 {
			src.PutNReliable(op, bogus, 0, 4096)
		}
	}
	acks := dst.Stats.AcksSent
	eng.Schedule(0, func() {
		src.PutNReliable(op, rb, 0, 4096)
		src.Retransmit(op)
	})
	eng.Run()
	if got := dst.Stats.AcksSent - acks; got < 2 {
		t.Fatalf("target sent %d acks, want the completion ack plus a duplicate re-ack", got)
	}
	if log.acked[op] != 1 || op.current == nil {
		t.Fatalf("record reported acked %d times, live %v; want the first operation acked and the second live",
			log.acked[op], op.current != nil)
	}
}

// A record whose operation was abandoned before its first attempt left
// the NIC is not the caller's to reuse: the endpoint has its local
// completion still to report, and refuses another operation on it until
// it has.
func TestReliableRecordReuseWaitsForLocalCompletion(t *testing.T) {
	eng, src, dst := defaultPair(t)
	log := newAckLog(src)
	rb := handshake(t, eng, src, 1, 4096)
	op := new(Reliable)
	var refused, sentAtAbandon bool
	eng.Schedule(0, func() {
		src.PutNReliable(op, rb, 0, 4096)
		src.AbandonReliable(op)
		sentAtAbandon = op.Sent()
		func() {
			defer func() { refused = recover() != nil }()
			src.SendReliable(op, 1, 0, 1)
		}()
	})
	eng.Run()
	if sentAtAbandon || !refused {
		t.Fatalf("at abandonment Sent()=%v and reuse refused=%v, want false and true", sentAtAbandon, refused)
	}
	if log.sent[op] != 1 || !op.Sent() {
		t.Fatalf("abandoned operation reported sent %d times, Sent()=%v after the run; want once and true", log.sent[op], op.Sent())
	}
	if dst.Stats.AcksSent == 0 {
		t.Fatal("the target never acked the abandoned put, so its packets never left the NIC")
	}
}

// PendingRegistrations counts the handshakes awaiting their reply.
func TestPendingRegistrationsCountsInFlight(t *testing.T) {
	eng, src, _ := defaultPair(t)
	eng.Schedule(0, func() {
		src.RequestRemoteBuffer(1, 4096)
		src.RequestRemoteBuffer(1, 4096)
	})
	eng.Step()
	if n := src.PendingRegistrations(); n != 2 {
		t.Fatalf("%d registrations in flight after issuing two, want 2", n)
	}
	eng.Run()
	if n := src.PendingRegistrations(); n != 0 {
		t.Fatalf("%d registrations in flight after both replies, want 0", n)
	}
}
