package rdma

import (
	"testing"

	"rvma/internal/sim"
)

// reliableKinds starts one reliable operation of each kind from src to
// node 1: an acked put into rb, and an acked fence-QP send (dst posts the
// receive it consumes).
func reliableKinds(t *testing.T, eng *sim.Engine, src, dst *Endpoint) []struct {
	name  string
	start func() (*Reliable, *Attempt)
} {
	rb := handshake(t, eng, src, 1, 4096)
	return []struct {
		name  string
		start func() (*Reliable, *Attempt)
	}{
		{"put", func() (*Reliable, *Attempt) { return src.PutNReliable(rb, 0, 4096) }},
		{"send", func() (*Reliable, *Attempt) {
			dst.PostRecv(0, FenceQP)
			return src.SendReliable(1, FenceQP, 4096)
		}},
	}
}

// retransmitPanics reports whether Retransmit refuses op, which it does
// exactly when op is no longer live (acked or abandoned).
func retransmitPanics(ep *Endpoint, op *Reliable) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	ep.Retransmit(op)
	return false
}

// An ack names the operation, not the attempt: when a retransmit went out
// before the first attempt's ack returned, that ack resolves the current
// (second) attempt, and the re-ack the duplicates draw resolves nothing.
func TestReliableAckResolvesCurrentAttempt(t *testing.T) {
	eng, src, dst := defaultPair(t)
	for _, k := range reliableKinds(t, eng, src, dst) {
		t.Run(k.name, func(t *testing.T) {
			acks := dst.Stats.AcksSent
			var first, second *Attempt
			eng.Schedule(0, func() {
				var op *Reliable
				op, first = k.start()
				second = src.Retransmit(op)
			})
			eng.Run()
			if first.Acked.Done() || !second.Acked.Done() {
				t.Fatalf("first acked %v, second acked %v; want only the current (second) attempt acked",
					first.Acked.Done(), second.Acked.Done())
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
	for _, k := range reliableKinds(t, eng, src, dst) {
		t.Run(k.name, func(t *testing.T) {
			acks := dst.Stats.AcksSent
			var op *Reliable
			var at *Attempt
			eng.Schedule(0, func() {
				op, at = k.start()
				src.AbandonReliable(op) // give up before the ack returns
			})
			eng.Run()
			if dst.Stats.AcksSent-acks != 1 {
				t.Fatalf("target sent %d acks, want 1", dst.Stats.AcksSent-acks)
			}
			if at.Acked.Done() {
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
	for _, k := range reliableKinds(t, eng, src, dst) {
		t.Run(k.name, func(t *testing.T) {
			var op *Reliable
			var at *Attempt
			eng.Schedule(0, func() { op, at = k.start() })
			eng.Run()
			if !at.Acked.Done() {
				t.Fatal("ack never arrived")
			}
			if !retransmitPanics(src, op) {
				t.Fatal("Retransmit of an acked operation did not panic")
			}
		})
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
