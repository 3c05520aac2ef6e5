// Package collective implements the classic latency-bound collective
// algorithms — barrier and allreduce by recursive doubling, broadcast by
// binomial tree, allgather by ring — over the motif Transport interface,
// so they run unchanged on RVMA and on baseline RDMA. Each algorithm
// builds one rank's schedule of sends, receives and compute delays, and
// a step record per rank replays it.
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

// action is one step of a rank's part in a collective: a send, a
// receive or a modeled compute delay. A rank's schedule lists its
// actions for one iteration in the order it makes them, the way an SST
// ember motif generates its event list, and the rank's step record
// replays it once per iteration.
type action struct {
	kind  actionKind
	peer  int
	bytes int
	delay sim.Time
}

type actionKind uint8

const (
	actSend actionKind = iota
	actRecv
	actCompute
)

func send(s []action, to, bytes int) []action {
	return append(s, action{kind: actSend, peer: to, bytes: bytes})
}

func recv(s []action, from, bytes int) []action {
	return append(s, action{kind: actRecv, peer: from, bytes: bytes})
}

// barrier appends rank me's part of a dissemination barrier over n
// ranks: at round k each rank sends a token to (me + 2^k) mod n and waits
// for one from (me - 2^k) mod n; ceil(log2 n) rounds.
func barrier(s []action, me, n int) []action {
	const tokenBytes = 8
	for step := 1; step < n; step <<= 1 {
		s = send(s, (me+step)%n, tokenBytes)
		s = recv(s, (me-step+n)%n, tokenBytes)
	}
	return s
}

// allreduce appends rank me's part of a recursive-doubling allreduce of
// a vector of elemBytes*elems bytes. Non-power-of-two rank counts use
// the standard fold: extras send their contribution to a partner first
// and receive the result last. Only timing flows; the reduction itself is
// a modeled compute delay per element.
func allreduce(s []action, me, n, elems, elemBytes int, reduceTimePerElem sim.Time) []action {
	if n <= 1 || elems <= 0 {
		return s
	}
	msg := elems * elemBytes
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	rem := n - pow2

	compute := func(s []action) []action {
		if reduceTimePerElem > 0 {
			s = append(s, action{kind: actCompute, delay: sim.Scale(elems, reduceTimePerElem)})
		}
		return s
	}

	// Fold extras into the power-of-two core.
	if me >= pow2 { // extra: contribute, then wait for the result
		partner := me - pow2
		s = send(s, partner, msg)
		return recv(s, partner, msg)
	}
	if me < rem { // core rank paired with an extra
		s = recv(s, me+pow2, msg)
		s = compute(s)
	}
	for mask := 1; mask < pow2; mask <<= 1 {
		partner := me ^ mask
		s = send(s, partner, msg)
		s = recv(s, partner, msg)
		s = compute(s)
	}
	if me < rem { // return the result to the extra
		s = send(s, me+pow2, msg)
	}
	return s
}

// broadcast appends rank me's part of sending size bytes from root to
// every rank along a binomial tree (the MPICH algorithm): ceil(log2 n)
// rounds on the critical path.
func broadcast(s []action, me, n, root, size int) []action {
	if n <= 1 {
		return s
	}
	// Rotate so the root is virtual rank 0.
	v := (me - root + n) % n
	unrotate := func(v int) int { return (v + root) % n }

	// Receive phase: scan masks upward; the lowest set bit of the virtual
	// rank identifies the parent.
	mask := 1
	for mask < ceilPow2(n) {
		if v&mask != 0 {
			s = recv(s, unrotate(v-mask), size)
			break
		}
		mask <<= 1
	}
	// Forward phase: relay to children at decreasing masks.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if v+mask < n {
			s = send(s, unrotate(v+mask), size)
		}
	}
	return s
}

// allgather appends rank me's part of rotating each rank's size-byte
// block around a ring: n-1 steps, bandwidth-optimal for large blocks.
func allgather(s []action, me, n, size int) []action {
	right, left := (me+1)%n, (me-1+n)%n
	for step := 0; step < n-1; step++ {
		s = send(s, right, size)
		s = recv(s, left, size)
	}
	return s
}

// neighborsAll returns every rank except me (collectives over a
// dissemination/hypercube pattern can talk to any rank).
func neighborsAll(me, n int) []int {
	out := make([]int, 0, n-1)
	for r := 0; r < n; r++ {
		if r != me {
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
	var schedule func(s []action, me int) []action
	switch cfg.Op {
	case OpBarrier:
		schedule = func(s []action, me int) []action { return barrier(s, me, n) }
	case OpAllreduce:
		schedule = func(s []action, me int) []action {
			return allreduce(s, me, n, cfg.Elems, cfg.ElemBytes, cfg.ReducePerElem)
		}
	case OpBroadcast:
		// A barrier keeps iterations from overlapping, so the measured
		// time is per-broadcast, not pipelined.
		schedule = func(s []action, me int) []action { return barrier(broadcast(s, me, n, 0, cfg.Size), me, n) }
	case OpAllgather:
		schedule = func(s []action, me int) []action { return allgather(s, me, n, cfg.Size) }
	default:
		return 0, fmt.Errorf("collective: unknown op %q", cfg.Op)
	}
	t, err := replay(c, maxMsg, cfg.Iterations, schedule)
	if err != nil {
		return 0, fmt.Errorf("collective %s: %w", cfg.Op, err)
	}
	return t, nil
}

// replay replays each rank's schedule iterations times, every rank on its
// own step record, and returns the makespan.
func replay(c *motif.Cluster, maxMsg, iterations int, schedule func(s []action, me int) []action) (sim.Time, error) {
	n := len(c.Transports)
	job := &job{fin: motif.NewFinishLine(n), maxMsg: maxMsg, iterations: iterations}
	var all []action // every rank's schedule, back to back
	rs := make([]rank, n)
	for me := range rs {
		r := &rs[me]
		r.job, r.tp, r.tag, r.me = job, c.Transports[me], c.TagFor(me).Retag("collective"), me
		r.peers = neighborsAll(me, n)
		first := len(all)
		all = schedule(all, me)
		r.schedule = all[first:len(all):len(all)]
		r.wake = r.step
		r.tag.Schedule(0, r.wake)
	}
	c.Run()
	if !job.fin.AllDone() {
		return 0, motif.ErrDeadlock
	}
	return job.fin.FinishTime(), nil
}

// job is what every rank of one replay shares.
type job struct {
	fin        *motif.FinishLine
	maxMsg     int
	iterations int
}

// rank is one rank's step record: it prepares every other rank as a
// peer, then replays its schedule once per iteration.
type rank struct {
	guard    sim.StepGuard
	job      *job
	tp       motif.Transport
	tag      sim.Tagged
	wake     func() // r.step
	me       int
	peers    []int // every other rank, until Prepare has read it
	schedule []action
	prepared bool
	iter     int
	next     int // the next action of the schedule
}

// step runs the rank up to its next wait.
//
//rvmalint:hot
func (r *rank) step() {
	if sim.DebugEnabled {
		r.guard.Enter("coll-rank")
		defer r.guard.Leave()
	}
	job, tp := r.job, r.tp
	if !r.prepared {
		r.prepared = true
		peers := r.peers
		r.peers = nil
		if !tp.Prepare(peers, peers, job.maxMsg, r.wake) {
			return
		}
	}
	for {
		if r.next == len(r.schedule) {
			r.next = 0
			r.iter++
		}
		if r.iter == job.iterations {
			job.fin.Arrive(r.me, r.tag.Now())
			return
		}
		a := &r.schedule[r.next]
		r.next++
		switch a.kind {
		case actSend:
			tp.Send(a.peer, a.bytes)
		case actRecv:
			if !tp.Recv(a.peer, a.bytes, r.wake) {
				return
			}
		case actCompute:
			r.tag.Schedule(a.delay, r.wake)
			return
		}
	}
}
