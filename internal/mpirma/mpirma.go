// Package mpirma layers MPI-style one-sided (RMA) communication on top of
// RVMA, demonstrating the paper's §IV-E claim that "RVMA fundamentally
// includes the concept of a RMA epoch" and its §IV-F proposal of an
// MPIX_Rewind(MPI_Win) call for hardware-level communication rollback.
//
// An mpirma.Win is an MPI window: every rank exposes a same-sized region
// addressed remotely as (rank, offset). Epochs are delimited by Fence, the
// BSP-style MPI_Win_fence. RVMA makes the fence cheap:
//
//   - puts during the epoch go straight to the target's data mailbox — no
//     per-op acknowledgments;
//   - at the fence each rank writes its per-target op count into one slot
//     of every target's *control* mailbox (offset = 8 x sender rank, a
//     steered RVMA put), and the control window's byte threshold fires
//     exactly when all peers have reported — a hardware-counted barrier;
//   - the rank then knows how many data messages to expect, waits for
//     them, and hands the epoch's buffer over with IncEpoch, which also
//     retires it into the NIC's history ring.
//
// Because each epoch runs in a different shadow region (rotating through
// Win's bucket of buffers), MPIX_Rewind(k) can return the intact contents
// of a previous epoch straight from the window history — the paper's
// hardware fault tolerance, with the documented caveat that the
// application must not have overwritten retired buffers.
package mpirma

import (
	"encoding/binary"
	"fmt"

	"rvma/internal/memory"
	"rvma/internal/rvma"
	"rvma/internal/sim"
)

// Comm is a communicator: one RVMA endpoint per rank (rank == node id).
type Comm struct {
	eps  []*rvma.Endpoint
	eng  *sim.Engine
	wins uint64 // windows created so far; the next one's id is wins+1
}

// NewComm wraps a set of endpoints as a communicator. All endpoints must
// share one engine and carry real data (mpirma moves bytes).
func NewComm(eps []*rvma.Endpoint) (*Comm, error) {
	if len(eps) == 0 {
		return nil, fmt.Errorf("mpirma: empty communicator")
	}
	for i, ep := range eps {
		if ep.Node() != i {
			return nil, fmt.Errorf("mpirma: endpoint %d is node %d; ranks must equal node ids", i, ep.Node())
		}
		if !ep.Config().CarryData {
			return nil, fmt.Errorf("mpirma: endpoint %d does not carry data", i)
		}
	}
	return &Comm{eps: eps, eng: eps[0].Engine()}, nil
}

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.eps) }

// Engine returns the simulation engine.
func (c *Comm) Engine() *sim.Engine { return c.eng }

// WinConfig parameterizes window creation.
type WinConfig struct {
	// Size is the exposed region size per rank, in bytes.
	Size int
	// Shadows is the number of rotating epoch regions per rank. Two are
	// always posted (active + next); retired regions stay intact — and
	// Rewind-able — until the rotation reuses them, so the safe rollback
	// depth is Shadows-2. Defaults to 4 (rollback depth 2).
	Shadows int
	// PollInterval is the fence's op-count polling cadence; defaults to
	// the endpoint profile's interval.
	PollInterval sim.Time
}

// Win is an MPI RMA window over RVMA mailboxes.
type Win struct {
	comm *Comm
	cfg  WinConfig
	id   uint64

	ranks []*winRank
}

// winRank is one rank's local state. Its fence is a step record: phase
// is the fence's next action, and run advances it to its next wait.
type winRank struct {
	win       *Win
	rank      int
	dataWin   *rvma.Window
	shadows   []*memory.Region
	curShadow int

	// Two control windows implement the fence's two rounds: entry (op
	// counts) and exit (epoch-closed barrier). Each runs a pump that
	// banks completions and immediately reposts the completed region, so
	// a peer ahead by one fence can never have its slot write dropped.
	ctrlIn  *ctrlChannel
	ctrlOut *ctrlChannel

	epoch         int64
	opsSentTo     []uint64 // this epoch, per target
	expectedTotal uint64   // cumulative data messages expected (all epochs)

	phase fencePhase
	k     func(error) // the pending fence's continuation
	wake  func()      // r.resume, bound once
}

// fencePhase is the next action of a rank's fence.
type fencePhase uint8

const (
	fenceEntry   fencePhase = iota // report op counts, wait for every peer's
	fenceCount                     // sum the counts, wait for that many data messages
	fenceRotate                    // retire the epoch, wait for its buffer to complete
	fenceRotated                   // count the epoch, report leaving, wait for every peer
	fenceExit                      // consume the exit round's slots
)

// ctrlChannel is a completion-banked control mailbox with two rotating
// slot regions (one per in-flight epoch).
type ctrlChannel struct {
	win       *rvma.Window
	regions   [2]*memory.Region
	readIdx   int // region holding the oldest unconsumed epoch's slots
	available int
	waiter    func() // the owning rank's fence, when it waits; one fence at a time
}

// newCtrlChannel builds the window, posts both regions, and arms the pump.
func newCtrlChannel(ep *rvma.Endpoint, mbox rvma.VAddr, peers int) (*ctrlChannel, error) {
	win, err := ep.InitWindow(mbox, int64(8*peers), rvma.EpochBytes)
	if err != nil {
		return nil, err
	}
	c := &ctrlChannel{win: win}
	slots := 8 * (peers + 1) // one slot per rank, including self (unused)
	for i := range c.regions {
		c.regions[i] = ep.Memory().Alloc(slots)
		if _, err := win.PostBufferRegion(c.regions[i]); err != nil {
			return nil, err
		}
	}
	win.SetCompletionHandler(func(buf *rvma.Buffer) {
		// Recycle the retired region right away; its slot values stay
		// readable until the *next* completion, which cannot happen before
		// this rank itself contributes to the following epoch.
		if _, err := win.PostBufferRegion(buf.Region); err != nil {
			panic(err)
		}
		if k := c.waiter; k != nil {
			c.waiter = nil
			k()
			return
		}
		c.available++
	})
	return c, nil
}

// wait takes the next completed epoch (all peers wrote) and returns true;
// with none completed, it returns false and calls k once one completes.
func (c *ctrlChannel) wait(k func()) bool {
	if c.available > 0 {
		c.available--
		return true
	}
	c.waiter = k
	return false
}

// consume returns the oldest unconsumed epoch's slot region and rotates.
func (c *ctrlChannel) consume() *memory.Region {
	r := c.regions[c.readIdx]
	c.readIdx = (c.readIdx + 1) % len(c.regions)
	return r
}

// Window ids partition the mailbox space: data mailboxes live at
// winID<<20 | 0, the fence-entry control at | 1, fence-exit at | 2. A
// communicator numbers its windows from 1 in creation order.
func (w *Win) dataMbox() rvma.VAddr    { return rvma.VAddr(w.id<<20 | 0) }
func (w *Win) ctrlInMbox() rvma.VAddr  { return rvma.VAddr(w.id<<20 | 1) }
func (w *Win) ctrlOutMbox() rvma.VAddr { return rvma.VAddr(w.id<<20 | 2) }

// CreateWin collectively creates a window of cfg.Size bytes per rank.
// Must be called once, before the simulation manipulates the window.
func CreateWin(c *Comm, cfg WinConfig) (*Win, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("mpirma: window size %d", cfg.Size)
	}
	if cfg.Shadows == 0 {
		cfg.Shadows = 4
	}
	if cfg.Shadows < 3 {
		return nil, fmt.Errorf("mpirma: need >= 3 shadow regions (2 posted + >= 1 rollback)")
	}
	c.wins++
	w := &Win{comm: c, cfg: cfg, id: c.wins}

	n := c.Size()
	for rank := 0; rank < n; rank++ {
		ep := c.eps[rank]
		// Data window: effectively unbounded threshold; epochs end via
		// IncEpoch at the fence (op counts are not known when posting).
		dataWin, err := ep.InitWindow(w.dataMbox(), 1<<62, rvma.EpochBytes)
		if err != nil {
			return nil, err
		}
		r := &winRank{
			win:       w,
			rank:      rank,
			dataWin:   dataWin,
			opsSentTo: make([]uint64, n),
		}
		r.wake = r.resume
		// Control channels: one 8-byte slot per peer; the byte threshold
		// fires exactly when all n-1 peers have written. Single-rank
		// communicators need no control traffic.
		if n > 1 {
			if r.ctrlIn, err = newCtrlChannel(ep, w.ctrlInMbox(), n-1); err != nil {
				return nil, err
			}
			if r.ctrlOut, err = newCtrlChannel(ep, w.ctrlOutMbox(), n-1); err != nil {
				return nil, err
			}
		}
		for i := 0; i < cfg.Shadows; i++ {
			r.shadows = append(r.shadows, ep.Memory().Alloc(cfg.Size))
		}
		// Keep two regions posted at all times: the active epoch and the
		// next one. Rotation at a fence then never leaves the mailbox
		// without a buffer, so an early put from a peer that exited its
		// fence first is never dropped.
		if _, err := dataWin.PostBufferRegion(r.shadows[0]); err != nil {
			return nil, err
		}
		if _, err := dataWin.PostBufferRegion(r.shadows[1]); err != nil {
			return nil, err
		}
		w.ranks = append(w.ranks, r)
	}
	return w, nil
}

// Size returns the per-rank window size.
func (w *Win) Size() int { return w.cfg.Size }

// Epoch returns rank's current epoch number.
func (w *Win) Epoch(rank int) int64 { return w.ranks[rank].epoch }

// Put initiates an MPI_Put from origin into target's window at offset.
// It is nonblocking; completion at the target is established by the next
// Fence. The returned future is local completion (origin buffer reuse).
func (w *Win) Put(origin, target, offset int, data []byte) (*sim.Future, error) {
	if offset < 0 || offset+len(data) > w.cfg.Size {
		return nil, fmt.Errorf("mpirma: put [%d,%d) outside window of %d", offset, offset+len(data), w.cfg.Size)
	}
	r := w.ranks[origin]
	r.opsSentTo[target]++
	op := w.comm.eps[origin].Put(target, w.dataMbox(), offset, data)
	return op.Local, nil
}

// Get fetches n bytes at offset from target's current window region.
// The future resolves with the []byte.
func (w *Win) Get(origin, target, offset, n int) (*sim.Future, error) {
	if offset < 0 || offset+n > w.cfg.Size {
		return nil, fmt.Errorf("mpirma: get [%d,%d) outside window of %d", offset, offset+n, w.cfg.Size)
	}
	op := w.comm.eps[origin].Get(target, w.dataMbox(), offset, n)
	return op.Done, nil
}

// Fence is the collective epoch boundary (MPI_Win_fence). Every rank
// must call it, and a rank calls it again only once its last fence is
// done. When the fence is done at a rank:
//
//   - all puts targeting that rank in the closing epoch have landed,
//   - the epoch's region is retired to the NIC history (Rewind-able),
//   - the next epoch's shadow region is exposed.
//
// Fence waits as a motif Transport does: it returns true, with the
// fence's error, when the fence is done already, and then never calls k.
// Otherwise it returns false and calls k exactly once, later, with the
// fence's error, from inside the event that ends the fence.
func (w *Win) Fence(rank int, k func(error)) (bool, error) {
	r := w.ranks[rank]
	if r.k != nil {
		panic(fmt.Sprintf("mpirma: rank %d fences again before its fence is done", rank))
	}
	r.phase = fenceEntry
	if done, err := r.run(); done {
		return true, err
	}
	r.k = k
	return false, nil
}

// resume runs the fence on from the completion it waited for; once the
// fence is done, it lets go of k and calls it.
func (r *winRank) resume() {
	if done, err := r.run(); done {
		k := r.k
		r.k = nil
		k(err)
	}
}

// run advances the fence up to its next wait, which calls r.wake, and
// returns false there; it returns true once the fence is done.
func (r *winRank) run() (bool, error) {
	ep := r.win.comm.eps[r.rank]
	n := r.win.comm.Size()
	for {
		switch r.phase {
		case fenceEntry:
			if n == 1 {
				r.phase = fenceRotate
				continue
			}
			// 1. Entry round: report this epoch's op counts into slot
			// 8*rank of every peer's entry-control mailbox.
			for t := 0; t < n; t++ {
				if t != r.rank {
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], r.opsSentTo[t])
					ep.Put(t, r.win.ctrlInMbox(), 8*r.rank, b[:])
					r.opsSentTo[t] = 0
				}
			}
			// 2. The entry window's byte threshold fires when all n-1 peers
			// have reported — the NIC counter is the barrier.
			r.phase = fenceCount
			if !r.ctrlIn.wait(r.wake) {
				return false, nil
			}
		case fenceCount:
			// 3. Sum the reported counts and wait until that many data
			// messages have been placed over this window's lifetime.
			slots := r.ctrlIn.consume()
			counts := ep.Memory().Read(slots.Base, slots.Size())
			for t := 0; t < n; t++ {
				if t != r.rank {
					r.expectedTotal += binary.LittleEndian.Uint64(counts[8*t : 8*t+8])
				}
			}
			interval := r.win.cfg.PollInterval
			if interval == 0 {
				interval = ep.NIC().Profile().PollInterval
			}
			r.phase = fenceRotate
			if f := r.dataWin.WhenPlaced(r.expectedTotal, interval); !f.Done() {
				f.OnComplete(r.wake)
				return false, nil
			}
		case fenceRotate:
			// 4. Retire the epoch's data buffer (IncEpoch -> history) so the
			// already-posted next shadow becomes the active region, then
			// post the shadow after that to restore the two-deep queue.
			//
			// Epoch regions are independent accumulation buffers: a new
			// epoch starts zeroed rather than inheriting the previous
			// epoch's bytes. (Classic MPI_Win_fence exposes one persistent
			// region; the shadow scheme trades that for the paper's §IV-F
			// property — retired epochs stay intact and Rewind-able.
			// Applications that need carry-over state read the previous
			// epoch via Data/Rewind and re-put it.)
			f, err := r.dataWin.IncEpoch()
			if err != nil {
				return true, err
			}
			r.curShadow = (r.curShadow + 1) % len(r.shadows)
			refill := r.shadows[(r.curShadow+1)%len(r.shadows)]
			ep.Memory().Fill(refill.Base, 0, refill.Size()) // reused region starts clean
			if _, err := r.dataWin.PostBufferRegion(refill); err != nil {
				return true, err
			}
			r.phase = fenceRotated
			if !f.Done() {
				f.OnComplete(r.wake)
				return false, nil
			}
		case fenceRotated:
			r.epoch++
			if n == 1 {
				return true, nil
			}
			// 5. Exit round: no rank may leave the fence (and start
			// next-epoch puts) before every rank has rotated, or early
			// puts would land in a peer's still-open previous epoch.
			for t := 0; t < n; t++ {
				if t != r.rank {
					ep.Put(t, r.win.ctrlOutMbox(), 8*r.rank, make([]byte, 8))
				}
			}
			r.phase = fenceExit
			if !r.ctrlOut.wait(r.wake) {
				return false, nil
			}
		case fenceExit:
			r.ctrlOut.consume()
			return true, nil
		}
	}
}

// Rewind implements the paper's MPIX_Rewind(MPI_Win): return the intact
// contents of rank's window as of k epochs ago (k=1 is the last completed
// epoch), retrieved from the RVMA NIC's buffer history. It fails if the
// history no longer reaches that epoch (bounded by the endpoint's
// HistoryDepth) or if shadow rotation has already reused the region.
func (w *Win) Rewind(rank, k int) ([]byte, error) {
	r := w.ranks[rank]
	if k > len(r.shadows)-2 {
		return nil, fmt.Errorf("mpirma: rewind depth %d exceeds safe depth %d (region reused by rotation)",
			k, len(r.shadows)-2)
	}
	buf, err := r.dataWin.Rewind(k)
	if err != nil {
		return nil, err
	}
	return w.comm.eps[rank].Memory().Read(buf.Region.Base, buf.Region.Size()), nil
}
