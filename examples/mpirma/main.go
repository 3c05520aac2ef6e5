// MPI-RMA over RVMA: the paper's §IV-E/§IV-F story as a small 1-D stencil.
//
// Four ranks run a BSP loop: each epoch, every rank puts a stamped halo
// value into both neighbors' windows, then fences (MPI_Win_fence —
// implemented with RVMA's hardware-counted control mailboxes, no software
// completion tracking). After all epochs, a fault is "detected" and the
// window is rolled back two epochs with the paper's proposed MPIX_Rewind,
// recovered from the RVMA NIC's buffer history rather than any software
// checkpoint.
//
// Run with: go run ./examples/mpirma
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"rvma"
	"rvma/internal/mpirma"
	"rvma/internal/sim"
)

const (
	ranks  = 4
	epochs = 5
)

// stamp encodes (epoch, rank) so any slot identifies its writer.
func stamp(epoch, rank int) uint64 { return uint64(epoch*1000 + rank) }

// rank runs the BSP loop. It waits more than once, so it is a step
// record: step runs it from one wait to the next.
type rank struct {
	eng   *sim.Engine
	win   *mpirma.Win
	id    int
	epoch int // the epoch in progress
}

func (r *rank) step() {
	if r.epoch++; r.epoch > epochs {
		if r.id == 1 {
			r.rollBack()
		}
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], stamp(r.epoch, r.id))
	if left := r.id - 1; left >= 0 {
		// My value is the left neighbor's right-halo slot.
		if _, err := r.win.Put(r.id, left, 8, b[:]); err != nil {
			log.Fatal(err)
		}
	}
	if right := r.id + 1; right < ranks {
		if _, err := r.win.Put(r.id, right, 0, b[:]); err != nil {
			log.Fatal(err)
		}
	}
	if done, err := r.win.Fence(r.id, r.fenced); done {
		r.fenced(err)
	}
}

// fenced is the fence's continuation: the rank "computes" on the received
// halos, then starts the next epoch.
func (r *rank) fenced(err error) {
	if err != nil {
		log.Fatalf("rank %d fence: %v", r.id, err)
	}
	r.eng.Schedule(2*sim.Microsecond, r.step)
}

// rollBack is rank 1's fault recovery after the last epoch.
func (r *rank) rollBack() {
	fmt.Printf("[%v] rank 1: finished %d epochs (window epoch counter = %d)\n",
		r.eng.Now(), epochs, r.win.Epoch(r.id))
	// Fault detected: rewind the communication state. k=1 is the final
	// epoch; k=3 reaches two timesteps earlier.
	for _, k := range []int{1, 3} {
		data, err := r.win.Rewind(r.id, k)
		if err != nil {
			log.Fatalf("rewind(%d): %v", k, err)
		}
		leftVal := binary.LittleEndian.Uint64(data[0:8])
		rightVal := binary.LittleEndian.Uint64(data[8:16])
		fmt.Printf("[%v] rank 1: MPIX_Rewind(%d) -> halos from epoch %d: left=%d right=%d\n",
			r.eng.Now(), k, epochs-k+1, leftVal, rightVal)
		wantLeft := stamp(epochs-k+1, 0)
		wantRight := stamp(epochs-k+1, 2)
		if leftVal != wantLeft || rightVal != wantRight {
			log.Fatalf("rollback mismatch: got (%d,%d), want (%d,%d)",
				leftVal, rightVal, wantLeft, wantRight)
		}
	}
	fmt.Println("rank 1: rolled-back halos are byte-exact — no software checkpointing involved")
}

func main() {
	ecfg := rvma.DefaultConfig()
	ecfg.HistoryDepth = 8
	tb, err := rvma.NewTestbed(ranks, rvma.TestbedConfig{Endpoint: &ecfg, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	eng := tb.Engine
	comm, err := mpirma.NewComm(tb.Endpoints)
	if err != nil {
		log.Fatal(err)
	}
	// Window layout per rank: slot 0 (bytes 0-7) = value from the left
	// neighbor, slot 1 (bytes 8-15) = value from the right neighbor.
	win, err := mpirma.CreateWin(comm, mpirma.WinConfig{Size: 16, Shadows: 6})
	if err != nil {
		log.Fatal(err)
	}

	for id := 0; id < ranks; id++ {
		eng.Schedule(0, (&rank{eng: eng, win: win, id: id}).step)
	}
	eng.Run()
	fmt.Printf("simulation finished at %v\n", eng.Now())
}
