package motif

import (
	"fmt"

	"rvma/internal/rdma"
	"rvma/internal/rvma"
	"rvma/internal/sim"
)

// This file is the paper's perftest-style testing (§V-A) as two motifs on
// ranks 0 and 1: the ping-pong, and Figure 1's buffer-setup handshake
// alone. They drive the cluster's endpoints directly, since what they
// measure is the endpoints' completion schemes: RVMA's threshold counter
// and completion pointer, RDMA's last-byte polling (RDMALastBytePoll on a
// byte-ordered routing), and otherwise RDMA's trailing 1-byte send/recv.
// The ping-pong detaches the transports' handlers from the two endpoints
// first: the puts it issues are none of the transports' messages.

// RunPingPong bounces a size-byte message between ranks 0 and 1 iters
// times and returns the duration of that timed loop: 2*iters one-way
// latencies. RDMA first negotiates one buffer per direction in a run of
// its own; RVMA needs no setup.
func RunPingPong(c *Cluster, size, iters int) (sim.Time, error) {
	if len(c.Transports) < 2 || size <= 0 || iters <= 0 {
		return 0, fmt.Errorf("pingpong: need 2 ranks and a positive size and iteration count")
	}
	if c.Kind == KindRVMA {
		// Both sides expose one mailbox (EPOCH_OPS, threshold 1: a message
		// size known a priori needs exactly one operation) and post a
		// buffer before each message.
		a, b := c.rvmaEPs[0], c.rvmaEPs[1]
		a.SetNackHandler(nil)
		b.SetNackHandler(nil)
		const mboxA, mboxB = rvma.VAddr(0xA), rvma.VAddr(0xB)
		winA, errA := a.InitWindow(mboxA, 1, rvma.EpochOps)
		winB, errB := b.InitWindow(mboxB, 1, rvma.EpochOps)
		if errA != nil || errB != nil {
			return 0, fmt.Errorf("pingpong: %v %v", errA, errB)
		}
		watch := func(ep *rvma.Endpoint, win *rvma.Window) *rvma.Notification {
			buf, err := win.PostBuffer(size)
			if err != nil {
				panic(err)
			}
			return ep.WatchBuffer(buf)
		}
		return bounce(c, iters, bounceSide{arm: func() *sim.Future {
			n := watch(a, winA)
			a.PutN(1, mboxB, 0, size)
			return n.Done
		}}, bounceSide{arm: func() *sim.Future {
			return watch(b, winB).Done
		}, then: func() {
			b.PutN(0, mboxA, 0, size)
		}})
	}

	a, b := c.rdmaEPs[0], c.rdmaEPs[1]
	a.SetSentHandler(nil)
	b.SetSentHandler(nil)
	opAB := a.RequestRemoteBuffer(1, size)
	opBA := b.RequestRemoteBuffer(0, size)
	c.Group.Run()
	if !opAB.Done.Done() || !opBA.Done.Done() {
		return 0, fmt.Errorf("pingpong: setup handshake did not complete")
	}
	rbOnB := opAB.Done.Value().(rdma.RemoteBuffer)
	rbOnA := opBA.Done.Value().(rdma.RemoteBuffer)
	mrOnB, mrOnA := b.RegionByKey(rbOnB.RKey), a.RegionByKey(rbOnA.RKey)
	scheme := rdma.CompleteSendRecv
	if c.lastByte {
		scheme = rdma.CompleteLastByte
	}
	wait := func(ep *rdma.Endpoint, mr *rdma.MemoryRegion) *sim.Future {
		if scheme == rdma.CompleteLastByte {
			return ep.WaitLastByte(mr, size).Done
		}
		return ep.PostRecv(1-ep.Node(), rdma.FenceQP).Done
	}
	return bounce(c, iters, bounceSide{arm: func() *sim.Future {
		a.PutN(rbOnB, 0, size, scheme)
		return wait(a, mrOnA)
	}}, bounceSide{arm: func() *sim.Future {
		return wait(b, mrOnB)
	}, then: func() {
		b.PutN(rbOnA, 0, size, scheme)
	}})
}

// bounceSide is one side's part of a round trip: arm does everything up
// to the wait and returns the future waited on, then (nil if nothing)
// what follows the wait.
type bounceSide struct {
	arm  func() *sim.Future
	then func()
}

// bounce runs the timed loop: iters pings on rank 0, which times them,
// and iters pongs on rank 1.
func bounce(c *Cluster, iters int, ping, pong bounceSide) (sim.Time, error) {
	rs := [2]bouncer{{side: ping, iters: iters, tag: c.TagFor(0)}, {side: pong, iters: iters, tag: c.TagFor(1)}}
	for i := range rs {
		r := &rs[i]
		r.wake = r.step
		r.tag.Schedule(0, r.wake)
	}
	c.Run()
	if a := &rs[0]; a.phase == bounceDone {
		return a.end - a.start, nil
	}
	return 0, fmt.Errorf("pingpong: %w", ErrDeadlock)
}

// bouncer is one side of the ping-pong: iters round trips, each its
// side's arm, a wait, and its then.
type bouncer struct {
	guard      sim.StepGuard
	side       bounceSide
	tag        sim.Tagged
	wake       func() // r.step
	iters, i   int
	start, end sim.Time
	phase      bouncePhase
}

type bouncePhase uint8

const (
	bounceStart bouncePhase = iota
	bounceArm               // start round trip r.i
	bounceThen              // round trip r.i's wait is over
	bounceDone
)

// step runs the side up to its next wait.
//
//rvmalint:hot
func (r *bouncer) step() {
	if sim.DebugEnabled {
		r.guard.Enter("pingpong")
		defer r.guard.Leave()
	}
	for {
		switch r.phase {
		case bounceStart:
			r.start = r.tag.Now()
			r.phase = bounceArm
		case bounceArm:
			if r.i == r.iters {
				r.end = r.tag.Now()
				r.phase = bounceDone
				return
			}
			r.phase = bounceThen
			if f := r.side.arm(); !f.Done() {
				f.OnComplete(r.wake)
				return
			}
		case bounceThen:
			if r.side.then != nil {
				r.side.then()
			}
			r.i++
			r.phase = bounceArm
		}
	}
}

// RunSetup runs Figure 1's handshake alone: rank 0 asks rank 1 for a
// size-byte buffer, and the result is the time the (address, length, key)
// reply is in hand. RVMA has no setup: its result is zero, with nothing
// simulated.
func RunSetup(c *Cluster, size int) (sim.Time, error) {
	if len(c.Transports) < 2 || size <= 0 {
		return 0, fmt.Errorf("setup: need 2 ranks and a positive size")
	}
	if c.Kind == KindRVMA {
		return 0, nil
	}
	op := c.rdmaEPs[0].RequestRemoteBuffer(1, size)
	c.Run()
	if !op.Done.Done() {
		return 0, fmt.Errorf("setup: handshake did not complete")
	}
	return op.Done.CompletedAt(), nil
}
