package mpirma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/rvma"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// newComm builds an n-rank communicator on a one-switch network.
func newComm(t *testing.T, n int, seed uint64) *Comm {
	t.Helper()
	eng := sim.NewEngine(seed)
	net, err := fabric.New(eng, topology.NewSingleSwitch(n), fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof := nic.DefaultProfile()
	eps := make([]*rvma.Endpoint, n)
	cfg := rvma.DefaultConfig()
	cfg.HistoryDepth = 8
	for i := 0; i < n; i++ {
		eps[i] = rvma.NewEndpoint(nic.New(eng, net, i, pcie.Gen4x16(), prof), cfg)
	}
	c, err := NewComm(eps)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fencer is one test rank as a step record: for each of its epochs it
// calls before, fences, and calls after, recording when the fence ended.
type fencer struct {
	t             *testing.T
	win           *Win
	rank, epochs  int
	before, after func(rank, epoch int)
	ends          []sim.Time // per epoch, when the rank's fence ended
}

// step runs the rank up to its next fence wait.
func (f *fencer) step() {
	for len(f.ends) < f.epochs {
		if f.before != nil {
			f.before(f.rank, len(f.ends)+1)
		}
		if done, err := f.win.Fence(f.rank, f.fenced); !done || !f.end(err) {
			return
		}
	}
}

// fenced is the fence's continuation.
func (f *fencer) fenced(err error) {
	if f.end(err) {
		f.step()
	}
}

// end records the fence that ended now and runs after; it returns false,
// stopping the rank, on a fence error.
func (f *fencer) end(err error) bool {
	if err != nil {
		f.t.Errorf("rank %d epoch %d fence: %v", f.rank, len(f.ends)+1, err)
		return false
	}
	f.ends = append(f.ends, f.win.comm.Engine().Now())
	if f.after != nil {
		f.after(f.rank, len(f.ends))
	}
	return true
}

// runFences starts one fencer per rank at time 0, runs to quiet, and
// returns each rank's fence end times. Either hook may be nil.
func runFences(t *testing.T, win *Win, epochs int, before, after func(rank, epoch int)) [][]sim.Time {
	t.Helper()
	c := win.comm
	ranks := make([]*fencer, c.Size())
	for rank := range ranks {
		ranks[rank] = &fencer{t: t, win: win, rank: rank, epochs: epochs, before: before, after: after}
		c.Engine().Schedule(0, ranks[rank].step)
	}
	c.Engine().Run()
	ends := make([][]sim.Time, len(ranks))
	for rank, f := range ranks {
		if ends[rank] = f.ends; len(f.ends) != epochs {
			t.Fatalf("rank %d finished %d of %d fences (fence deadlock?)", rank, len(f.ends), epochs)
		}
	}
	return ends
}

func TestPutFenceVisibility(t *testing.T) {
	c := newComm(t, 4, 1)
	win, err := CreateWin(c, WinConfig{Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	putRankID := func(rank, _ int) {
		// Everyone writes its rank id into slot 8*rank of rank 0's window.
		if rank != 0 {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(rank))
			if _, err := win.Put(rank, 0, 8*rank, b[:]); err != nil {
				t.Error(err)
			}
		}
	}
	runFences(t, win, 1, putRankID, func(rank, _ int) {
		if rank == 0 {
			// After the fence, all puts of the epoch are visible — in the
			// retired epoch's region (epoch regions are per-epoch buffers).
			data, err := win.Rewind(0+rank, 1)
			if err != nil {
				t.Errorf("rewind: %v", err)
				return
			}
			for r := 1; r < 4; r++ {
				got := binary.LittleEndian.Uint64(data[8*r : 8*r+8])
				if got != uint64(r) {
					t.Errorf("slot %d = %d, want %d", r, got, r)
				}
			}
		}
	})
}

func TestMultipleEpochs(t *testing.T) {
	c := newComm(t, 3, 2)
	win, err := CreateWin(c, WinConfig{Size: 64, Shadows: 5})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 4
	stampRight := func(rank, e int) {
		// Ring pattern: each rank stamps (epoch, rank) into its right
		// neighbor's window.
		right := (rank + 1) % 3
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(e*100+rank))
		if _, err := win.Put(rank, right, 0, b[:]); err != nil {
			t.Error(err)
		}
	}
	ends := runFences(t, win, epochs, stampRight, func(rank, e int) {
		// The just-retired epoch holds the left neighbor's stamp.
		left := (rank + 2) % 3
		data, err := win.Rewind(rank, 1)
		if err != nil {
			t.Errorf("rank %d rewind: %v", rank, err)
			return
		}
		got := binary.LittleEndian.Uint64(data[:8])
		if got != uint64(e*100+left) {
			t.Errorf("rank %d epoch %d: got stamp %d, want %d", rank, e, got, e*100+left)
		}
	})
	for rank := 0; rank < 3; rank++ {
		if win.Epoch(rank) != epochs {
			t.Fatalf("rank %d epoch = %d, want %d", rank, win.Epoch(rank), epochs)
		}
	}
	// When each rank's fences end (ps): two control rounds and the data
	// wait per epoch, counted by the NICs. A change to how a fence waits
	// must not move them.
	want := [][]sim.Time{
		{2022560, 4037440, 6052320, 8067200},
		{2014880, 4069760, 6096160, 8111040},
		{2054880, 4077440, 6092320, 8107200},
	}
	for rank := range want {
		if !slices.Equal(ends[rank], want[rank]) {
			t.Errorf("rank %d fences end at %d ps, want %d ps", rank, ends[rank], want[rank])
		}
	}
}

func TestRewindDepth(t *testing.T) {
	c := newComm(t, 2, 3)
	win, err := CreateWin(c, WinConfig{Size: 16, Shadows: 5}) // safe depth 3
	if err != nil {
		t.Fatal(err)
	}
	putEpoch := func(rank, e int) {
		if rank == 0 {
			payload := bytes.Repeat([]byte{byte(e)}, 16)
			if _, err := win.Put(0, 1, 0, payload); err != nil {
				t.Error(err)
			}
		}
	}
	runFences(t, win, 4, putEpoch, func(rank, e int) {
		if rank == 1 && e == 4 {
			// Rewind(1..3) must return epochs 4, 3, 2 byte-exact.
			for k := 1; k <= 3; k++ {
				data, err := win.Rewind(1, k)
				if err != nil {
					t.Errorf("Rewind(%d): %v", k, err)
					continue
				}
				want := byte(5 - k)
				if data[0] != want {
					t.Errorf("Rewind(%d) = epoch %d data, want %d", k, data[0], want)
				}
			}
			// Depth 4 exceeds the shadow guarantee.
			if _, err := win.Rewind(1, 4); err == nil {
				t.Error("Rewind(4) should fail: region reused by rotation")
			}
		}
	})
}

func TestGetThroughWindow(t *testing.T) {
	c := newComm(t, 2, 4)
	win, err := CreateWin(c, WinConfig{Size: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-load rank 1's active region directly (local initialization).
	content := bytes.Repeat([]byte{0x5C}, 128)
	r1 := win.ranks[1]
	c.eps[1].Memory().Write(r1.shadows[r1.curShadow].Base, content)

	done := false
	c.Engine().Schedule(0, func() {
		f, err := win.Get(0, 1, 32, 64)
		if err != nil {
			t.Fatal(err)
		}
		f.OnComplete(func() {
			done = true
			if got := f.Value().([]byte); !bytes.Equal(got, content[32:96]) {
				t.Error("get returned wrong bytes")
			}
		})
	})
	c.Engine().Run()
	if !done {
		t.Fatal("get never completed")
	}
}

func TestFenceWithNoTraffic(t *testing.T) {
	// A fence in an epoch with zero puts must still synchronize.
	c := newComm(t, 4, 5)
	win, err := CreateWin(c, WinConfig{Size: 32})
	if err != nil {
		t.Fatal(err)
	}
	runFences(t, win, 3, nil, nil)
}

func TestSingleRankComm(t *testing.T) {
	c := newComm(t, 1, 6)
	win, err := CreateWin(c, WinConfig{Size: 32})
	if err != nil {
		t.Fatal(err)
	}
	runFences(t, win, 1, nil, nil)
	if win.Epoch(0) != 1 {
		t.Fatalf("epoch = %d", win.Epoch(0))
	}
}

func TestManyPutsPerEpoch(t *testing.T) {
	// Stress the count-report path: many puts from every rank to rank 0.
	c := newComm(t, 4, 7)
	win, err := CreateWin(c, WinConfig{Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const putsPerRank = 16
	runFences(t, win, 1, func(rank, _ int) {
		if rank != 0 {
			for i := 0; i < putsPerRank; i++ {
				off := (rank-1)*putsPerRank*8 + i*8
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(rank*1000+i))
				if _, err := win.Put(rank, 0, off, b[:]); err != nil {
					t.Error(err)
				}
			}
		}
	}, nil)
	data, err := win.Rewind(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 1; rank < 4; rank++ {
		for i := 0; i < putsPerRank; i++ {
			off := (rank-1)*putsPerRank*8 + i*8
			got := binary.LittleEndian.Uint64(data[off : off+8])
			if got != uint64(rank*1000+i) {
				t.Fatalf("slot (%d,%d) = %d", rank, i, got)
			}
		}
	}
}

func TestWinValidation(t *testing.T) {
	c := newComm(t, 2, 8)
	if _, err := CreateWin(c, WinConfig{Size: 0}); err == nil {
		t.Fatal("zero size should fail")
	}
	if _, err := CreateWin(c, WinConfig{Size: 8, Shadows: 2}); err == nil {
		t.Fatal("too few shadows should fail")
	}
	win, err := CreateWin(c, WinConfig{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := win.Put(0, 1, 4, make([]byte, 8)); err == nil {
		t.Fatal("overflowing put should fail")
	}
	if _, err := win.Get(0, 1, 0, 9); err == nil {
		t.Fatal("overflowing get should fail")
	}
}

// TestFenceErrorReachesCaller checks both ways a fence ends with an
// error: one raised before the fence waits comes back from Fence, which
// returns true and never calls k; one raised after a wait reaches k.
func TestFenceErrorReachesCaller(t *testing.T) {
	c := newComm(t, 1, 9)
	win, err := CreateWin(c, WinConfig{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	win.ranks[0].dataWin.Close() // the fence's IncEpoch fails at once
	called := false
	if done, err := win.Fence(0, func(error) { called = true }); !done || !errors.Is(err, rvma.ErrClosed) {
		t.Fatalf("single-rank fence on a closed window: done %v, err %v; want true, ErrClosed", done, err)
	}

	// Rank 0's window closes while its fence waits for the entry round.
	c = newComm(t, 2, 10)
	if win, err = CreateWin(c, WinConfig{Size: 8}); err != nil {
		t.Fatal(err)
	}
	var got error
	c.Engine().Schedule(0, func() {
		if done, _ := win.Fence(0, func(err error) { got = err }); done {
			t.Fatal("rank 0's fence ended before its peer fenced")
		}
		win.ranks[0].dataWin.Close()
		win.Fence(1, func(error) {})
	})
	c.Engine().Run()
	if called || !errors.Is(got, rvma.ErrClosed) {
		t.Fatalf("k called on a synchronous error: %v; rank 0's fence ended with %v, want ErrClosed", called, got)
	}
}

// TestCommsNumberWindowsAlike checks that window ids belong to the
// communicator: the first window of each of two communicators built in one
// process gets the same mailboxes, so a run's addresses do not depend on
// what ran before it.
func TestCommsNumberWindowsAlike(t *testing.T) {
	want := [3]rvma.VAddr{1 << 20, 1<<20 | 1, 1<<20 | 2}
	for seed := uint64(1); seed <= 2; seed++ {
		win, err := CreateWin(newComm(t, 2, seed), WinConfig{Size: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]rvma.VAddr{win.dataMbox(), win.ctrlInMbox(), win.ctrlOutMbox()}; got != want {
			t.Fatalf("communicator %d: first window's mailboxes %#x, want %#x", seed, got, want)
		}
	}
}

func TestNewCommValidation(t *testing.T) {
	if _, err := NewComm(nil); err == nil {
		t.Fatal("empty comm should fail")
	}
	eng := sim.NewEngine(1)
	net, _ := fabric.New(eng, topology.NewSingleSwitch(2), fabric.DefaultConfig())
	cfg := rvma.DefaultConfig()
	cfg.CarryData = false
	ep := rvma.NewEndpoint(nic.New(eng, net, 0, pcie.Gen4x16(), nic.DefaultProfile()), cfg)
	if _, err := NewComm([]*rvma.Endpoint{ep}); err == nil {
		t.Fatal("timing-only endpoints should fail")
	}
}
