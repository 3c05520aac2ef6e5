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
	nBlocks := cfg.Nz / cfg.KBA

	fin := NewFinishLine(ranks)

	for rank := 0; rank < ranks; rank++ {
		tp := c.Transports[rank]
		tag := c.TagFor(rank)
		i, j := rank%cfg.Px, rank/cfg.Px
		// All four lateral neighbors participate across the 8 corners.
		var peers []int
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			ni, nj := i+d[0], j+d[1]
			if ni >= 0 && ni < cfg.Px && nj >= 0 && nj < cfg.Py {
				peers = append(peers, nj*cfg.Px+ni)
			}
		}
		tag.Spawn("sweep-rank", func(p *sim.Process) {
			p.Wait(tp.Prepare(peers, peers, maxMsg))
			for iter := 0; iter < cfg.Iterations; iter++ {
				for _, corner := range sweepCorners {
					dx, dy := corner[0], corner[1]
					upX, hasUpX := gridNeighbor(i, j, -dx, 0, cfg.Px, cfg.Py)
					upY, hasUpY := gridNeighbor(i, j, 0, -dy, cfg.Px, cfg.Py)
					downX, hasDownX := gridNeighbor(i, j, dx, 0, cfg.Px, cfg.Py)
					downY, hasDownY := gridNeighbor(i, j, 0, dy, cfg.Px, cfg.Py)
					for blk := 0; blk < nBlocks; blk++ {
						if hasUpX {
							tp.Recv(p, upX, cfg.xMsgBytes())
						}
						if hasUpY {
							tp.Recv(p, upY, cfg.yMsgBytes())
						}
						p.Sleep(cfg.blockComputeTime())
						if hasDownX {
							tp.Send(downX, cfg.xMsgBytes())
						}
						if hasDownY {
							tp.Send(downY, cfg.yMsgBytes())
						}
					}
				}
			}
			fin.Arrive(rank, tag.Now())
		})
	}
	c.Run()
	if !fin.AllDone() {
		return 0, fmt.Errorf("sweep3d: %w — %d ranks never finished", ErrDeadlock, ranks)
	}
	return fin.FinishTime(), nil
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
