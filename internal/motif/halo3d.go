package motif

import (
	"fmt"

	"rvma/internal/sim"
)

// Halo3DConfig parameterizes the Halo3D motif: a 3-D decomposition
// (Px x Py x Pz ranks) where each rank holds an Nx x Ny x Nz block and
// exchanges its six faces with its neighbors every iteration, then
// computes. "Halo3D communication exchanges benefit from high bandwidth
// and a low number of network hops" (§V-B1, Figure 8).
type Halo3DConfig struct {
	Px, Py, Pz     int
	Nx, Ny, Nz     int
	Vars           int
	ComputePerCell sim.Time
	Iterations     int
}

// DefaultHalo3DConfig sizes the motif for a rank count with a near-cubic
// decomposition and ember-like block sizes (medium-to-large messages).
func DefaultHalo3DConfig(ranks int) Halo3DConfig {
	px, py, pz := cubest(ranks)
	return Halo3DConfig{
		Px: px, Py: py, Pz: pz,
		Nx: 24, Ny: 24, Nz: 24,
		Vars:           4,
		ComputePerCell: 10 * sim.Picosecond,
		Iterations:     10,
	}
}

// Validate reports configuration errors.
func (c Halo3DConfig) Validate(ranks int) error {
	if c.Px*c.Py*c.Pz != ranks {
		return fmt.Errorf("halo3d: grid %dx%dx%d does not match %d ranks", c.Px, c.Py, c.Pz, ranks)
	}
	if c.Nx <= 0 || c.Ny <= 0 || c.Nz <= 0 || c.Vars <= 0 || c.Iterations <= 0 {
		return fmt.Errorf("halo3d: non-positive parameter")
	}
	return nil
}

// Face sizes in bytes (8-byte variables).
func (c Halo3DConfig) xFaceBytes() int { return c.Ny * c.Nz * c.Vars * 8 }
func (c Halo3DConfig) yFaceBytes() int { return c.Nx * c.Nz * c.Vars * 8 }
func (c Halo3DConfig) zFaceBytes() int { return c.Nx * c.Ny * c.Vars * 8 }

// iterComputeTime is the per-iteration computation.
func (c Halo3DConfig) iterComputeTime() sim.Time {
	return sim.Scale(c.Nx*c.Ny*c.Nz, c.ComputePerCell)
}

// RunHalo3D executes the motif and returns the simulated makespan.
func RunHalo3D(c *Cluster, cfg Halo3DConfig) (sim.Time, error) {
	ranks := len(c.Transports)
	if err := cfg.Validate(ranks); err != nil {
		return 0, err
	}
	maxMsg := cfg.xFaceBytes()
	for _, s := range []int{cfg.yFaceBytes(), cfg.zFaceBytes()} {
		if s > maxMsg {
			maxMsg = s
		}
	}

	fin := NewFinishLine(ranks)

	type face struct {
		peer int
		size int
	}
	for rank := 0; rank < ranks; rank++ {
		tp := c.Transports[rank]
		x := rank % cfg.Px
		y := (rank / cfg.Px) % cfg.Py
		z := rank / (cfg.Px * cfg.Py)
		var faces []face
		add := func(nx, ny, nz, size int) {
			if nx < 0 || nx >= cfg.Px || ny < 0 || ny >= cfg.Py || nz < 0 || nz >= cfg.Pz {
				return
			}
			faces = append(faces, face{peer: nx + cfg.Px*(ny+cfg.Py*nz), size: size})
		}
		add(x-1, y, z, cfg.xFaceBytes())
		add(x+1, y, z, cfg.xFaceBytes())
		add(x, y-1, z, cfg.yFaceBytes())
		add(x, y+1, z, cfg.yFaceBytes())
		add(x, y, z-1, cfg.zFaceBytes())
		add(x, y, z+1, cfg.zFaceBytes())

		peers := make([]int, len(faces))
		for i, f := range faces {
			peers[i] = f.peer
		}
		tag := c.TagFor(rank)
		tag.Spawn("halo-rank", func(p *sim.Process) {
			p.Wait(tp.Prepare(peers, peers, maxMsg))
			for iter := 0; iter < cfg.Iterations; iter++ {
				p.Sleep(cfg.iterComputeTime())
				// Post all sends, then consume all receives, then wait
				// for the sends to complete locally. Sends are nonblocking
				// at this level; the transports enforce their own flow
				// control.
				for _, f := range faces {
					tp.Send(f.peer, f.size)
				}
				for _, f := range faces {
					tp.Recv(p, f.peer, f.size)
				}
				for _, f := range faces {
					tp.WaitSent(p, f.peer)
				}
			}
			fin.Arrive(rank, tag.Now())
		})
	}
	c.Run()
	if !fin.AllDone() {
		return 0, fmt.Errorf("halo3d: %w — ranks never finished", ErrDeadlock)
	}
	return fin.FinishTime(), nil
}

// cubest factors n into the most-cubic (a, b, c) with a*b*c = n.
func cubest(n int) (int, int, int) {
	bestA, bestB, bestC := 1, 1, n
	bestScore := n * n
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		m := n / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			c := m / b
			score := c - a // spread; smaller is more cubic
			if score < bestScore {
				bestScore = score
				bestA, bestB, bestC = a, b, c
			}
		}
	}
	return bestA, bestB, bestC
}
