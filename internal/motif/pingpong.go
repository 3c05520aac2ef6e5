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
		return bounce(c, iters, func(p *sim.Process) {
			n := watch(a, winA)
			a.PutN(1, mboxB, 0, size)
			p.Wait(n.Done)
		}, func(p *sim.Process) {
			n := watch(b, winB)
			p.Wait(n.Done)
			b.PutN(0, mboxA, 0, size)
		})
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
	wait := func(p *sim.Process, ep *rdma.Endpoint, mr *rdma.MemoryRegion) {
		if scheme == rdma.CompleteLastByte {
			p.Wait(ep.WaitLastByte(mr, size).Done)
		} else {
			p.Wait(ep.PostRecv(1-ep.Node(), rdma.FenceQP).Done)
		}
	}
	return bounce(c, iters, func(p *sim.Process) {
		a.PutN(rbOnB, 0, size, scheme)
		wait(p, a, mrOnA)
	}, func(p *sim.Process) {
		wait(p, b, mrOnB)
		b.PutN(rbOnA, 0, size, scheme)
	})
}

// bounce runs the timed loop: iters pings on rank 0, which times them,
// and iters pongs on rank 1.
func bounce(c *Cluster, iters int, ping, pong func(p *sim.Process)) (sim.Time, error) {
	var start, end sim.Time
	done := false
	c.TagFor(0).Spawn("pingpong-A", func(p *sim.Process) {
		start = p.Now()
		for i := 0; i < iters; i++ {
			ping(p)
		}
		end, done = p.Now(), true
	})
	c.TagFor(1).Spawn("pingpong-B", func(p *sim.Process) {
		for i := 0; i < iters; i++ {
			pong(p)
		}
	})
	c.Run()
	if !done {
		return 0, fmt.Errorf("pingpong: %w", ErrDeadlock)
	}
	return end - start, nil
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
