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

	job := &haloJob{cfg: cfg, maxMsg: maxMsg, fin: NewFinishLine(ranks)}
	rs := make([]haloRank, ranks)
	for rank := range rs {
		r := &rs[rank]
		r.job, r.tp, r.tag, r.rank = job, c.Transports[rank], c.TagFor(rank), rank
		x := rank % cfg.Px
		y := (rank / cfg.Px) % cfg.Py
		z := rank / (cfg.Px * cfg.Py)
		r.add(x-1, y, z, cfg.xFaceBytes())
		r.add(x+1, y, z, cfg.xFaceBytes())
		r.add(x, y-1, z, cfg.yFaceBytes())
		r.add(x, y+1, z, cfg.yFaceBytes())
		r.add(x, y, z-1, cfg.zFaceBytes())
		r.add(x, y, z+1, cfg.zFaceBytes())
		r.wake = r.step
		r.tag.Schedule(0, r.wake)
	}
	c.Run()
	if !job.fin.AllDone() {
		return 0, fmt.Errorf("halo3d: %w — ranks never finished", ErrDeadlock)
	}
	return job.fin.FinishTime(), nil
}

// haloJob is what every rank of one RunHalo3D call shares.
type haloJob struct {
	cfg    Halo3DConfig
	maxMsg int
	fin    *FinishLine
}

// haloRank is one Halo3D rank: per iteration it computes, posts a send
// of each face, consumes each neighbor's face, then waits for its own
// sends to complete locally. Sends are nonblocking at this level; the
// transports enforce their own flow control.
type haloRank struct {
	guard sim.StepGuard
	job   *haloJob
	tp    Transport
	tag   sim.Tagged
	wake  func() // r.step
	rank  int
	// peers[f] is the neighbor across face f, sizes[f] its bytes.
	peers  [6]int
	sizes  [6]int
	nfaces int
	phase  haloPhase
	iter   int
	face   int // the next face to receive or wait on
}

type haloPhase uint8

const (
	haloPrepare  haloPhase = iota
	haloIter               // start iteration r.iter: compute
	haloSend               // send every face
	haloRecv               // receive face r.face
	haloWaitSent           // wait for the send of face r.face
)

// add records the face toward the block at (x, y, z), if there is one.
func (r *haloRank) add(x, y, z, size int) {
	cfg := &r.job.cfg
	if x < 0 || x >= cfg.Px || y < 0 || y >= cfg.Py || z < 0 || z >= cfg.Pz {
		return
	}
	r.peers[r.nfaces], r.sizes[r.nfaces] = x+cfg.Px*(y+cfg.Py*z), size
	r.nfaces++
}

// step runs the rank up to its next wait.
//
//rvmalint:hot
func (r *haloRank) step() {
	if sim.DebugEnabled {
		r.guard.Enter("halo-rank")
		defer r.guard.Leave()
	}
	tp, peers := r.tp, r.peers[:r.nfaces]
	for {
		switch r.phase {
		case haloPrepare:
			r.phase = haloIter
			if !tp.Prepare(peers, peers, r.job.maxMsg, r.wake) {
				return
			}
		case haloIter:
			if r.iter == r.job.cfg.Iterations {
				r.job.fin.Arrive(r.rank, r.tag.Now())
				return
			}
			r.phase = haloSend
			r.tag.Schedule(r.job.cfg.iterComputeTime(), r.wake)
			return
		case haloSend:
			for f, peer := range peers {
				tp.Send(peer, r.sizes[f])
			}
			r.face = 0
			r.phase = haloRecv
		case haloRecv:
			if r.face == len(peers) {
				r.face = 0
				r.phase = haloWaitSent
				continue
			}
			r.face++
			if !tp.Recv(peers[r.face-1], r.sizes[r.face-1], r.wake) {
				return
			}
		case haloWaitSent:
			if r.face == len(peers) {
				r.iter++
				r.phase = haloIter
				continue
			}
			r.face++
			if !tp.WaitSent(peers[r.face-1], r.wake) {
				return
			}
		}
	}
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
