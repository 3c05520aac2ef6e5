// Package collective implements the classic latency-bound collective
// algorithms — barrier and allreduce by recursive doubling, broadcast by
// binomial tree, allgather by ring — over the motif Transport interface,
// so they run unchanged on RVMA and on baseline RDMA.
//
// Collectives are an extension experiment beyond the paper's Sweep3D and
// Halo3D: their critical paths are chains of small messages, which is
// precisely where RVMA's completion model (no trailing send/recv, no
// per-reuse credits) pays off. cmd/rvmabench's "collectives" table and
// the CollectiveLatency benchmarks quantify it.
package collective

import (
	"fmt"

	"rvma/internal/motif"
	"rvma/internal/sim"
)

// ceilPow2 returns the smallest power of two >= n.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Barrier synchronizes all ranks using dissemination: at round k each
// rank sends a token to (rank + 2^k) mod n and waits for one from
// (rank - 2^k) mod n; ceil(log2 n) rounds. Call from each rank's process.
func Barrier(p *sim.Process, tp motif.Transport) {
	n := tp.Ranks()
	if n <= 1 {
		return
	}
	me := tp.Rank()
	const tokenBytes = 8
	for step := 1; step < n; step <<= 1 {
		to := (me + step) % n
		from := (me - step + n) % n
		tp.Send(to, tokenBytes)
		tp.Recv(p, from, tokenBytes)
	}
}

// Allreduce performs a recursive-doubling allreduce of a vector of
// elemBytes*elems bytes. Non-power-of-two rank counts use the standard
// fold: extras send their contribution to a partner first and receive the
// result last. Only timing flows; the reduction itself is a modeled
// compute delay per element.
func Allreduce(p *sim.Process, tp motif.Transport, elems, elemBytes int, reduceTimePerElem sim.Time) {
	n := tp.Ranks()
	if n <= 1 || elems <= 0 {
		return
	}
	me := tp.Rank()
	msg := elems * elemBytes
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	rem := n - pow2

	compute := func() {
		if reduceTimePerElem > 0 {
			p.Sleep(sim.Scale(elems, reduceTimePerElem))
		}
	}

	// Fold extras into the power-of-two core.
	inCore := me < pow2
	if me >= pow2 { // extra: contribute, then wait for the result
		partner := me - pow2
		tp.Send(partner, msg)
		tp.Recv(p, partner, msg)
		return
	}
	if me < rem { // core rank paired with an extra
		tp.Recv(p, me+pow2, msg)
		compute()
	}

	if inCore {
		for mask := 1; mask < pow2; mask <<= 1 {
			partner := me ^ mask
			tp.Send(partner, msg)
			tp.Recv(p, partner, msg)
			compute()
		}
	}

	if me < rem { // return the result to the extra
		tp.Send(me+pow2, msg)
	}
}

// Broadcast sends size bytes from root to every rank along a binomial
// tree (the MPICH algorithm): ceil(log2 n) rounds on the critical path.
func Broadcast(p *sim.Process, tp motif.Transport, root, size int) {
	n := tp.Ranks()
	if n <= 1 {
		return
	}
	// Rotate so the root is virtual rank 0.
	me := (tp.Rank() - root + n) % n
	unrotate := func(v int) int { return (v + root) % n }

	// Receive phase: scan masks upward; the lowest set bit of my virtual
	// rank identifies my parent.
	mask := 1
	for mask < ceilPow2(n) {
		if me&mask != 0 {
			tp.Recv(p, unrotate(me-mask), size)
			break
		}
		mask <<= 1
	}
	// Forward phase: relay to children at decreasing masks.
	mask >>= 1
	for mask > 0 {
		if me+mask < n {
			tp.Send(unrotate(me+mask), size)
		}
		mask >>= 1
	}
}

// Allgather rotates each rank's size-byte block around a ring: n-1 steps,
// bandwidth-optimal for large blocks.
func Allgather(p *sim.Process, tp motif.Transport, size int) {
	n := tp.Ranks()
	if n <= 1 {
		return
	}
	me := tp.Rank()
	right := (me + 1) % n
	left := (me - 1 + n) % n
	for step := 0; step < n-1; step++ {
		tp.Send(right, size)
		tp.Recv(p, left, size)
	}
}

// neighborsAll returns every rank except self (collectives over a
// dissemination/hypercube pattern can talk to any rank).
func neighborsAll(tp motif.Transport) []int {
	out := make([]int, 0, tp.Ranks()-1)
	for r := 0; r < tp.Ranks(); r++ {
		if r != tp.Rank() {
			out = append(out, r)
		}
	}
	return out
}

// Op names a collective for RunCollective.
type Op string

// Supported collectives.
const (
	OpBarrier   Op = "barrier"
	OpAllreduce Op = "allreduce"
	OpBroadcast Op = "broadcast"
	OpAllgather Op = "allgather"
)

// Config parameterizes RunCollective.
type Config struct {
	Op         Op
	Iterations int
	// Elems/ElemBytes size the allreduce vector; Size sizes broadcast and
	// allgather blocks.
	Elems, ElemBytes int
	Size             int
	ReducePerElem    sim.Time
}

// DefaultConfig returns a small-message, latency-bound configuration.
func DefaultConfig(op Op) Config {
	return Config{
		Op:            op,
		Iterations:    10,
		Elems:         256,
		ElemBytes:     8,
		Size:          4096,
		ReducePerElem: sim.Nanosecond / 2,
	}
}

// RunCollective executes cfg.Iterations of the collective on every rank
// of the cluster and returns the simulated makespan.
func RunCollective(c *motif.Cluster, cfg Config) (sim.Time, error) {
	n := len(c.Transports)
	if n < 2 {
		return 0, fmt.Errorf("collective: need at least 2 ranks")
	}
	if cfg.Iterations <= 0 {
		return 0, fmt.Errorf("collective: non-positive iterations")
	}
	maxMsg := cfg.Size
	if v := cfg.Elems * cfg.ElemBytes; v > maxMsg {
		maxMsg = v
	}
	if maxMsg < 8 {
		maxMsg = 8
	}

	fin := motif.NewFinishLine(n)
	for rank := 0; rank < n; rank++ {
		tp := c.Transports[rank]
		tag := c.TagFor(rank).Retag("collective")
		tag.Spawn("coll-rank", func(p *sim.Process) {
			peers := neighborsAll(tp)
			p.Wait(tp.Prepare(peers, peers, maxMsg))
			for i := 0; i < cfg.Iterations; i++ {
				switch cfg.Op {
				case OpBarrier:
					Barrier(p, tp)
				case OpAllreduce:
					Allreduce(p, tp, cfg.Elems, cfg.ElemBytes, cfg.ReducePerElem)
				case OpBroadcast:
					Broadcast(p, tp, 0, cfg.Size)
					// A barrier keeps iterations from overlapping, so the
					// measured time is per-broadcast, not pipelined.
					Barrier(p, tp)
				case OpAllgather:
					Allgather(p, tp, cfg.Size)
				default:
					panic(fmt.Sprintf("collective: unknown op %q", cfg.Op))
				}
			}
			fin.Arrive(rank, p.Now())
		})
	}
	c.Run()
	if !fin.AllDone() {
		return 0, fmt.Errorf("collective %s: %w", cfg.Op, motif.ErrDeadlock)
	}
	return fin.FinishTime(), nil
}
