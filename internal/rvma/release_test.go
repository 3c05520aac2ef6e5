package rvma

import (
	"bytes"
	"errors"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/memory"
	"rvma/internal/sim"
)

// streamInto sends n puts of size bytes to mailbox vaddr on node 1, one
// every 5 µs, the i-th filled with byte i+1.
func streamInto(eng *sim.Engine, src *Endpoint, vaddr VAddr, n, size int) {
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, size)
		eng.Schedule(sim.Time(i)*5*sim.Microsecond, func() { src.Put(1, vaddr, 0, payload) })
	}
}

// repostOnCompletion keeps depth buffers of size bytes posted on win. When
// release is set, every completed buffer is released after its contents are
// checked against the stream's fill byte. It returns the completion times.
func repostOnCompletion(t *testing.T, eng *sim.Engine, win *Window, depth, size int, release bool) *[]sim.Time {
	t.Helper()
	for i := 0; i < depth; i++ {
		if _, err := win.PostBuffer(size); err != nil {
			t.Fatal(err)
		}
	}
	var times []sim.Time
	win.SetCompletionHandler(func(b *Buffer) {
		times = append(times, eng.Now())
		want := bytes.Repeat([]byte{byte(len(times))}, size)
		if got := win.ep.Memory().Read(b.Region.Base, size); !bytes.Equal(got, want) {
			t.Fatalf("epoch %d holds %x..., want %x...", len(times), got[:4], want[:4])
		}
		if release {
			if err := win.Release(b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := win.PostBuffer(size); err != nil {
			t.Fatal(err)
		}
	})
	return &times
}

func TestReleaseBoundsMailboxMemory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryDepth = 0
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	win, _ := dst.InitWindow(3, 1, EpochOps)
	const depth, size, msgs = 2, 4096, 50
	times := repostOnCompletion(t, eng, win, depth, size, true)
	streamInto(eng, src, 3, msgs, size)
	eng.Run()

	if len(*times) != msgs {
		t.Fatalf("%d completions, want %d", len(*times), msgs)
	}
	mem := dst.Memory()
	if want := depth * (size + memory.CacheLineSize); mem.LiveBytes() != want {
		t.Fatalf("live bytes after %d epochs = %d, want the %d posted buffers' %d", msgs, mem.LiveBytes(), depth, want)
	}
	// Released buffers hold nothing; the posted ones have not been written.
	if mem.ResidentBytes() != 0 {
		t.Fatalf("resident bytes = %d, want 0", mem.ResidentBytes())
	}
}

func TestReleaseWaitsForRewindHistory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryDepth = 2
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	win, _ := dst.InitWindow(4, 64, EpochBytes)
	const size, msgs = 64, 5
	repostOnCompletion(t, eng, win, 1, size, true)
	streamInto(eng, src, 4, msgs, size)
	eng.Run()

	// The two newest epochs are released but still retained, so Rewind
	// returns them intact; everything older was recycled.
	for k := 1; k <= 2; k++ {
		b, err := win.Rewind(k)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{byte(msgs + 1 - k)}, size)
		if got := dst.Memory().Read(b.Region.Base, size); !bytes.Equal(got, want) {
			t.Fatalf("rewind %d holds %x..., want %x...", k, got[:4], want[:4])
		}
	}
	if want := (1 + 2) * (size + memory.CacheLineSize); dst.Memory().LiveBytes() != want {
		t.Fatalf("live bytes = %d, want 1 posted + 2 retained buffers = %d", dst.Memory().LiveBytes(), want)
	}
}

// A released buffer feeds a later PostBuffer only once it has aged out of
// Rewind history. The handler releases every completed buffer at once and
// reposts: no post may hand out a Buffer still in history, and every
// history entry keeps its region, its cell and its epoch's contents. The
// spare list must be exercised, so some post does reuse a Buffer.
func TestPostBufferNeverReusesRewindHistory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryDepth = 2
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	win, _ := dst.InitWindow(4, 1, EpochOps)
	const size, depth, msgs = 64, 2, 12
	for i := 0; i < depth; i++ {
		if _, err := win.PostBuffer(size); err != nil {
			t.Fatal(err)
		}
	}
	posted := map[*Buffer]bool{}
	reused := 0
	win.SetCompletionHandler(func(b *Buffer) {
		if err := win.Release(b); err != nil {
			t.Fatal(err)
		}
		nb, err := win.PostBuffer(size)
		if err != nil {
			t.Fatal(err)
		}
		if posted[nb] {
			reused++
		}
		posted[nb] = true
		for _, h := range win.history {
			if h == nb {
				t.Fatalf("epoch %d: PostBuffer handed out the buffer of epoch %d, still in Rewind history", win.Epoch(), h.Epoch)
			}
			if h.Region == nil || h.Cell == nil {
				t.Fatalf("epoch %d: the buffer of epoch %d lost its memory while in Rewind history", win.Epoch(), h.Epoch)
			}
			want := bytes.Repeat([]byte{byte(h.Epoch + 1)}, size)
			if got := dst.Memory().Read(h.Region.Base, size); !bytes.Equal(got, want) {
				t.Fatalf("epoch %d: the buffer of epoch %d holds %x..., want %x...", win.Epoch(), h.Epoch, got[:4], want[:4])
			}
		}
	})
	streamInto(eng, src, 4, msgs, size)
	eng.Run()
	if win.Epoch() != msgs {
		t.Fatalf("%d of %d epochs completed", win.Epoch(), msgs)
	}
	if reused == 0 {
		t.Fatal("no post reused a released buffer")
	}
}

// Releasing changes where buffers live in simulated memory, never when
// anything happens.
func TestReleaseDoesNotChangeTiming(t *testing.T) {
	run := func(release bool) ([]sim.Time, uint64) {
		eng, src, dst := defaultPair(t)
		win, _ := dst.InitWindow(5, 1, EpochOps)
		times := repostOnCompletion(t, eng, win, 2, 2048, release)
		streamInto(eng, src, 5, 30, 2048)
		eng.Run()
		return *times, eng.EventsExecuted()
	}
	kept, keptEvents := run(false)
	released, releasedEvents := run(true)
	if keptEvents != releasedEvents || len(kept) != len(released) {
		t.Fatalf("events %d vs %d, completions %d vs %d", keptEvents, releasedEvents, len(kept), len(released))
	}
	for i := range kept {
		if kept[i] != released[i] {
			t.Fatalf("completion %d at %v without release, %v with", i, kept[i], released[i])
		}
	}
}

func TestReleaseKeepsSoftwareRegion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryDepth = 0
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	win, _ := dst.InitWindow(6, 32, EpochBytes)
	region := dst.Memory().Alloc(32)
	buf, _ := win.PostBufferRegion(region)
	streamInto(eng, src, 6, 1, 32)
	eng.Run()
	before := dst.Memory().LiveBytes()
	if err := win.Release(buf); err != nil {
		t.Fatal(err)
	}
	if got := dst.Memory().LiveBytes(); got != before-memory.CacheLineSize {
		t.Fatalf("live bytes %d -> %d, want only the completion cell freed", before, got)
	}
	if got := dst.Memory().Read(region.Base, 32); !bytes.Equal(got, bytes.Repeat([]byte{1}, 32)) {
		t.Fatal("software's region lost its contents on release")
	}
}

func TestReleaseRejectsMisuse(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(7, 16, EpochBytes)
	other, _ := dst.InitWindow(8, 16, EpochBytes)
	done, _ := win.PostBuffer(16)
	pending, _ := win.PostBuffer(16)
	streamInto(eng, src, 7, 1, 16)
	eng.Run()

	if err := win.Release(nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("release of nil: err = %v, want ErrBadArgument", err)
	}
	if err := win.Release(pending); !errors.Is(err, ErrBadArgument) {
		t.Errorf("release of a pending buffer: err = %v, want ErrBadArgument", err)
	}
	if err := other.Release(done); !errors.Is(err, ErrBadArgument) {
		t.Errorf("release through another window: err = %v", err)
	}
	if err := win.Release(done); err != nil {
		t.Fatal(err)
	}
	if err := win.Release(done); !errors.Is(err, ErrBadArgument) {
		t.Errorf("double release: err = %v", err)
	}
}

// BenchmarkPutReleaseRepost times the motif transport's steady state: one
// 4 KiB put into a mailbox whose completion handler releases the buffer
// and reposts, so every post reuses the last released buffer's memory.
// Run with -benchmem: the simulated memory stays at one posted buffer
// however large b.N grows.
func BenchmarkPutReleaseRepost(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CarryData = false
	cfg.HistoryDepth = 0
	eng, src, dst := pair(b, cfg, fabric.DefaultConfig(), 1)
	const size = 4096
	win, _ := dst.InitWindow(1, 1, EpochOps)
	if _, err := win.PostBuffer(size); err != nil {
		b.Fatal(err)
	}
	win.SetCompletionHandler(func(buf *Buffer) {
		if err := win.Release(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := win.PostBuffer(size); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(0, func() { src.PutN(1, 1, 0, size) })
		eng.Run()
	}
	b.StopTimer()
	if live := dst.Memory().LiveBytes(); live != size+memory.CacheLineSize {
		b.Fatalf("live bytes %d after %d puts, want one posted buffer", live, b.N)
	}
}
