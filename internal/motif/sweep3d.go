package motif

import (
	"fmt"

	"rvma/internal/sim"
)

// Sweep3DConfig parameterizes the Sweep3D motif: a 2-D decomposition
// (Px x Py ranks) of a 3-D domain, swept as pipelined wavefronts from all
// 8 corners (4 diagonal directions x 2 z-orders). The domain is blocked
// in z with depth KBA (the Koch-Baker-Alcouffe pipeline), so each rank
// exchanges Nz/KBA messages with each downstream neighbor per corner.
// This is the latency-sensitive workload of the paper's Figure 7: "a
// 'wave' of communication happening over all of the processes ... mostly
// latency sensitive" (§V-B1).
type Sweep3DConfig struct {
	Px, Py     int // process grid
	Nx, Ny, Nz int // per-rank local cells
	KBA        int // z-block depth
	Vars       int // variables per cell (8 bytes each on the wire)
	// ComputePerCell is the per-cell computation time; the paper uses
	// "minimal compute to compare the impact of communication".
	ComputePerCell sim.Time
	Iterations     int
}

// DefaultSweep3DConfig sizes the motif for a given rank count (choosing
// the most square Px x Py decomposition), with ember-like defaults.
func DefaultSweep3DConfig(ranks int) Sweep3DConfig {
	px, py := squarest(ranks)
	return Sweep3DConfig{
		Px: px, Py: py,
		Nx: 16, Ny: 16, Nz: 64,
		KBA:            8,
		Vars:           4,
		ComputePerCell: 25 * sim.Picosecond,
		Iterations:     1,
	}
}

// Validate reports configuration errors.
func (c Sweep3DConfig) Validate(ranks int) error {
	if c.Px*c.Py != ranks {
		return fmt.Errorf("sweep3d: grid %dx%d does not match %d ranks", c.Px, c.Py, ranks)
	}
	if c.Nx <= 0 || c.Ny <= 0 || c.Nz <= 0 || c.KBA <= 0 || c.Vars <= 0 || c.Iterations <= 0 {
		return fmt.Errorf("sweep3d: non-positive parameter")
	}
	if c.Nz%c.KBA != 0 {
		return fmt.Errorf("sweep3d: Nz %d not divisible by KBA %d", c.Nz, c.KBA)
	}
	return nil
}

// xMsgBytes is the size of a message to an x-neighbor: one y-z face slab
// of the current z-block.
func (c Sweep3DConfig) xMsgBytes() int { return c.Ny * c.KBA * c.Vars * 8 }

// yMsgBytes is the size of a message to a y-neighbor.
func (c Sweep3DConfig) yMsgBytes() int { return c.Nx * c.KBA * c.Vars * 8 }

// blockComputeTime is the per-block computation.
func (c Sweep3DConfig) blockComputeTime() sim.Time {
	return sim.Scale(c.Nx*c.Ny*c.KBA*c.Vars, c.ComputePerCell)
}

// sweepCorners are the 8 sweep directions: 4 (dx, dy) quadrants, each
// swept twice (once per z direction — same communication pattern).
var sweepCorners = [8][2]int{
	{+1, +1}, {+1, +1},
	{+1, -1}, {+1, -1},
	{-1, +1}, {-1, +1},
	{-1, -1}, {-1, -1},
}

// RunSweep3D executes the motif on the cluster and returns the simulated
// makespan (all ranks finished).
func RunSweep3D(c *Cluster, cfg Sweep3DConfig) (sim.Time, error) {
	ranks := len(c.Transports)
	if err := cfg.Validate(ranks); err != nil {
		return 0, err
	}
	maxMsg := cfg.xMsgBytes()
	if y := cfg.yMsgBytes(); y > maxMsg {
		maxMsg = y
	}
	job := &sweepJob{cfg: cfg, maxMsg: maxMsg, nBlocks: cfg.Nz / cfg.KBA, fin: NewFinishLine(ranks)}
	rs := make([]sweepRank, ranks)
	for rank := range rs {
		r := &rs[rank]
		r.job, r.tp, r.tag, r.rank = job, c.Transports[rank], c.TagFor(rank), rank
		r.i, r.j = rank%cfg.Px, rank/cfg.Px
		// All four lateral neighbors participate across the 8 corners.
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			if peer, ok := gridNeighbor(r.i, r.j, d[0], d[1], cfg.Px, cfg.Py); ok {
				r.peers[r.npeers] = peer
				r.npeers++
			}
		}
		r.wake = r.step
		r.tag.Schedule(0, r.wake)
	}
	c.Run()
	if !job.fin.AllDone() {
		return 0, fmt.Errorf("sweep3d: %w — %d ranks never finished", ErrDeadlock, ranks)
	}
	return job.fin.FinishTime(), nil
}

// sweepJob is what every rank of one RunSweep3D call shares.
type sweepJob struct {
	cfg     Sweep3DConfig
	maxMsg  int
	nBlocks int
	fin     *FinishLine
}

// sweepRank is one Sweep3D rank: per iteration and corner, it receives
// each z-block from its upstream neighbors, computes it and forwards it
// downstream.
type sweepRank struct {
	guard  sim.StepGuard
	job    *sweepJob
	tp     Transport
	tag    sim.Tagged
	wake   func() // r.step
	rank   int
	i, j   int
	peers  [4]int
	npeers int
	phase  sweepPhase
	iter   int
	corner int
	blk    int
	// The current corner's neighbors: up* send to this rank, down* are
	// sent to; has* is false at the grid's edge.
	upX, upY, downX, downY             int
	hasUpX, hasUpY, hasDownX, hasDownY bool
}

type sweepPhase uint8

const (
	sweepPrepare sweepPhase = iota
	sweepCorner             // start corner r.corner of iteration r.iter
	sweepBlock              // start block r.blk: receive from upX
	sweepRecvY              // receive from upY
	sweepCompute            // compute the block
	sweepSend               // forward the block downstream
)

// step runs the rank up to its next wait.
//
//rvmalint:hot
func (r *sweepRank) step() {
	if sim.DebugEnabled {
		r.guard.Enter("sweep-rank")
		defer r.guard.Leave()
	}
	job, tp := r.job, r.tp
	cfg := &job.cfg
	for {
		switch r.phase {
		case sweepPrepare:
			r.phase = sweepCorner
			if !tp.Prepare(r.peers[:r.npeers], r.peers[:r.npeers], job.maxMsg, r.wake) {
				return
			}
		case sweepCorner:
			if r.corner == len(sweepCorners) {
				r.corner = 0
				r.iter++
			}
			if r.iter == cfg.Iterations {
				job.fin.Arrive(r.rank, r.tag.Now())
				return
			}
			dx, dy := sweepCorners[r.corner][0], sweepCorners[r.corner][1]
			r.upX, r.hasUpX = gridNeighbor(r.i, r.j, -dx, 0, cfg.Px, cfg.Py)
			r.upY, r.hasUpY = gridNeighbor(r.i, r.j, 0, -dy, cfg.Px, cfg.Py)
			r.downX, r.hasDownX = gridNeighbor(r.i, r.j, dx, 0, cfg.Px, cfg.Py)
			r.downY, r.hasDownY = gridNeighbor(r.i, r.j, 0, dy, cfg.Px, cfg.Py)
			r.blk = 0
			r.phase = sweepBlock
		case sweepBlock:
			if r.blk == job.nBlocks {
				r.corner++
				r.phase = sweepCorner
				continue
			}
			r.phase = sweepRecvY
			if r.hasUpX && !tp.Recv(r.upX, cfg.xMsgBytes(), r.wake) {
				return
			}
		case sweepRecvY:
			r.phase = sweepCompute
			if r.hasUpY && !tp.Recv(r.upY, cfg.yMsgBytes(), r.wake) {
				return
			}
		case sweepCompute:
			r.phase = sweepSend
			r.tag.Schedule(cfg.blockComputeTime(), r.wake)
			return
		case sweepSend:
			if r.hasDownX {
				tp.Send(r.downX, cfg.xMsgBytes())
			}
			if r.hasDownY {
				tp.Send(r.downY, cfg.yMsgBytes())
			}
			r.blk++
			r.phase = sweepBlock
		}
	}
}

// gridNeighbor returns the rank at (i+di, j+dj) if it exists.
func gridNeighbor(i, j, di, dj, px, py int) (int, bool) {
	ni, nj := i+di, j+dj
	if ni < 0 || ni >= px || nj < 0 || nj >= py {
		return 0, false
	}
	return nj*px + ni, true
}

// squarest factors n into the most-square (a, b) with a*b = n and a <= b.
func squarest(n int) (int, int) {
	best := 1
	for a := 1; a*a <= n; a++ {
		if n%a == 0 {
			best = a
		}
	}
	return best, n / best
}
