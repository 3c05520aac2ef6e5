package memory

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"

	"rvma/internal/sim"
)

func TestAllocAlignment(t *testing.T) {
	m := new(Memory)
	for i := 0; i < 20; i++ {
		r := m.Alloc(i*7 + 1)
		if r.Base%CacheLineSize != 0 {
			t.Fatalf("region %d base %#x not cache-line aligned", i, r.Base)
		}
	}
}

func TestAllocDisjoint(t *testing.T) {
	m := new(Memory)
	a := m.Alloc(100)
	b := m.Alloc(100)
	if a.End() > b.Base {
		t.Fatalf("regions overlap: a=[%#x,%#x) b=[%#x,%#x)", a.Base, a.End(), b.Base, b.End())
	}
}

func TestWriteRead(t *testing.T) {
	m := new(Memory)
	r := m.Alloc(256)
	payload := []byte("remote virtual memory access")
	m.Write(r.Base+13, payload)
	got := m.Read(r.Base+13, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %q, want %q", got, payload)
	}
	if m.Writes != 1 || m.BytesWritten != uint64(len(payload)) {
		t.Fatalf("stats: writes=%d bytes=%d", m.Writes, m.BytesWritten)
	}
}

func TestFill(t *testing.T) {
	m := new(Memory)
	r := m.Alloc(64)
	m.Fill(r.Base+8, 0xAB, 16)
	got := m.Read(r.Base+8, 16)
	for _, b := range got {
		if b != 0xAB {
			t.Fatalf("fill byte = %#x, want 0xAB", b)
		}
	}
	if m.Read(r.Base, 8)[7] != 0 {
		t.Fatal("fill bled outside its range")
	}
}

func TestOutOfBoundsWritePanics(t *testing.T) {
	m := new(Memory)
	r := m.Alloc(16)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds write should panic")
		}
	}()
	m.Write(r.End()-4, make([]byte, 8))
}

func TestOutOfBoundsReadPanics(t *testing.T) {
	m := new(Memory)
	m.Alloc(16)
	defer func() {
		if recover() == nil {
			t.Fatal("read outside any region should panic")
		}
	}()
	m.Read(0x10, 4)
}

func TestRegionContains(t *testing.T) {
	r := &Region{Base: 0x100, size: 64}
	if !r.Contains(0x100, 64) {
		t.Fatal("full-span Contains failed")
	}
	if r.Contains(0x100, 65) {
		t.Fatal("Contains allowed overflow")
	}
	if r.Contains(0xFF, 1) {
		t.Fatal("Contains allowed underflow")
	}
	if r.Contains(0x100, -1) {
		t.Fatal("Contains allowed negative length")
	}
}

func TestWatcherFiresOnLineTouch(t *testing.T) {
	m := new(Memory)
	r := m.Alloc(256)
	fired := 0
	m.Watch(r.Base+64, func(a Addr, n int) { fired++ })
	m.Write(r.Base+64, []byte{1})       // exact address
	m.Write(r.Base+100, []byte{1})      // same line (64..127)
	m.Write(r.Base, []byte{1})          // different line
	m.Write(r.Base+128, []byte{1})      // different line
	m.Write(r.Base+60, make([]byte, 8)) // straddles into watched line
	if fired != 3 {
		t.Fatalf("watcher fired %d times, want 3", fired)
	}
}

func TestWatcherCancel(t *testing.T) {
	m := new(Memory)
	r := m.Alloc(64)
	fired := 0
	w := m.Watch(r.Base, func(a Addr, n int) { fired++ })
	m.Write(r.Base, []byte{1})
	w.Cancel()
	m.Write(r.Base, []byte{1})
	w.Cancel() // idempotent
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if m.WatcherCount() != 0 {
		t.Fatalf("watcher leaked: count = %d", m.WatcherCount())
	}
}

func TestWatcherSelfCancelDuringCallback(t *testing.T) {
	m := new(Memory)
	r := m.Alloc(64)
	fired := 0
	var w *Watcher
	w = m.Watch(r.Base, func(a Addr, n int) {
		fired++
		w.Cancel()
	})
	m.Write(r.Base, []byte{1})
	m.Write(r.Base, []byte{1})
	if fired != 1 {
		t.Fatalf("self-canceling watcher fired %d times, want 1", fired)
	}
}

func TestMultipleWatchersOneLine(t *testing.T) {
	m := new(Memory)
	r := m.Alloc(64)
	count := 0
	m.Watch(r.Base, func(Addr, int) { count++ })
	m.Watch(r.Base+8, func(Addr, int) { count++ })
	m.Write(r.Base+4, []byte{9})
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestCompletionCell(t *testing.T) {
	m := new(Memory)
	c := MakeCompletionCell(m, nil)
	if c.Addr()%CacheLineSize != 0 {
		t.Fatal("completion cell must be cache-line aligned")
	}
	if h, l := c.Get(); h != 0 || l != 0 {
		t.Fatalf("fresh cell = (%#x, %d), want zero", h, l)
	}
	c.Set(0xDEAD0, 4096)
	h, l := c.Get()
	if h != 0xDEAD0 || l != 4096 {
		t.Fatalf("cell = (%#x, %d), want (0xDEAD0, 4096)", h, l)
	}
	c.Clear()
	if h, l := c.Get(); h != 0 || l != 0 {
		t.Fatalf("cleared cell = (%#x, %d)", h, l)
	}
	// The cell reads and writes its own region directly, and counts like
	// any other access.
	if m.Writes != 2 || m.BytesWritten != 32 || m.Reads != 3 || m.BytesRead != 48 {
		t.Fatalf("stats: writes=%d (%d B) reads=%d (%d B), want 2 (32 B) and 3 (48 B)",
			m.Writes, m.BytesWritten, m.Reads, m.BytesRead)
	}
	if sim.DebugEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.Set(0xBEEF0, 64)
		c.Get()
	}); allocs != 0 {
		t.Fatalf("cell set and get: %.1f allocations, want 0", allocs)
	}
}

func TestCompletionCellWatch(t *testing.T) {
	m := new(Memory)
	c := MakeCompletionCell(m, nil)
	var seen Addr
	m.Watch(c.Addr(), func(Addr, int) {
		h, _ := c.Get()
		seen = h
	})
	c.Set(0xBEEF00, 128)
	if seen != 0xBEEF00 {
		t.Fatalf("watcher observed head %#x, want 0xBEEF00", seen)
	}
}

func TestCompletionCellsDontShareLines(t *testing.T) {
	m := new(Memory)
	a := MakeCompletionCell(m, nil)
	b := MakeCompletionCell(m, nil)
	fired := false
	m.Watch(a.Addr(), func(Addr, int) { fired = true })
	b.Set(1, 1)
	if fired {
		t.Fatal("write to cell B woke watcher on cell A (false sharing)")
	}
}

// Property: a write followed by a read of the same span returns the same
// bytes, for arbitrary offsets and payloads within a region.
func TestWriteReadRoundTripProperty(t *testing.T) {
	m := new(Memory)
	r := m.Alloc(1 << 16)
	f := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		a := r.Base + Addr(off)
		if !r.Contains(a, len(payload)) {
			return true // out of range inputs are skipped, not failures
		}
		m.Write(a, payload)
		return bytes.Equal(m.Read(a, len(payload)), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: writing non-overlapping chunks in any order produces the same
// final contents — the foundation of RVMA's claim that offset-based
// placement tolerates arbitrary packet arrival order (§IV-D).
func TestOutOfOrderPlacementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		const chunk, n = 64, 32
		build := func(order []int) []byte {
			m := new(Memory)
			r := m.Alloc(chunk * n)
			for _, idx := range order {
				payload := make([]byte, chunk)
				for j := range payload {
					payload[j] = byte(idx*31 + j)
				}
				m.Write(r.Base+Addr(idx*chunk), payload)
			}
			return m.Read(r.Base, chunk*n)
		}
		inOrder := make([]int, n)
		shuffled := make([]int, n)
		for i := 0; i < n; i++ {
			inOrder[i] = i
			shuffled[i] = i
		}
		rng := sim.NewRNG(seed)
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		return bytes.Equal(build(inOrder), build(shuffled))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPoller(t *testing.T) {
	e := sim.NewEngine(1)
	ready := false
	var doneAt sim.Time
	p := StartPoller(e.Tag("test"), 100*sim.Nanosecond, func() bool { return ready }, func() { doneAt = e.Now() })
	e.Schedule(450*sim.Nanosecond, func() { ready = true })
	e.Run()
	// Polls at 100,200,300,400 miss; the poll at 500 sees ready.
	if doneAt != 500*sim.Nanosecond {
		t.Fatalf("poller completed at %v, want 500ns", doneAt)
	}
	if p.Polls != 5 {
		t.Fatalf("polls = %d, want 5", p.Polls)
	}
}

func TestPollerStop(t *testing.T) {
	e := sim.NewEngine(1)
	p := StartPoller(e.Tag("test"), 10*sim.Nanosecond, func() bool { return false }, func() {})
	e.Schedule(35*sim.Nanosecond, func() { p.Stop() })
	e.RunUntil(sim.Microsecond)
	if p.Polls != 3 {
		t.Fatalf("polls before stop = %d, want 3", p.Polls)
	}
}

func TestPollerZeroIntervalPanics(t *testing.T) {
	e := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval should panic")
		}
	}()
	StartPoller(e.Tag("test"), 0, func() bool { return true }, func() {})
}

// TestWatcherNotifyOrderDeterministic pins the notify ordering contract:
// a write spanning several cache lines fires watchers in ascending line
// order, and within one line in registration order. Wake-up order is
// observable model behavior (a waiter may schedule events from its
// callback), so it must not depend on map iteration or any other
// randomized order.
func TestWatcherNotifyOrderDeterministic(t *testing.T) {
	m := new(Memory)
	r := m.Alloc(4 * CacheLineSize)

	var fired []int
	watch := func(id int, line Addr) {
		m.Watch(r.Base+line*CacheLineSize, func(Addr, int) {
			fired = append(fired, id)
		})
	}
	// Register out of line order, with two watchers on line 1.
	watch(0, 2)
	watch(1, 0)
	watch(2, 3)
	watch(3, 1)
	watch(4, 1)

	// One write covering all four lines.
	m.Write(r.Base, make([]byte, 4*CacheLineSize))

	want := []int{1, 3, 4, 0, 2} // line 0, line 1 (reg order), line 2, line 3
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestDemandZeroPages(t *testing.T) {
	m := new(Memory)
	r := m.Alloc(1 << 20)
	if got := m.Read(r.Base+12345, 100); !bytes.Equal(got, make([]byte, 100)) {
		t.Fatal("untouched memory must read zero")
	}
	if m.LiveBytes() != 1<<20 || m.ResidentBytes() != 0 {
		t.Fatalf("live=%d resident=%d, want %d and 0", m.LiveBytes(), m.ResidentBytes(), 1<<20)
	}
	// A write straddling a page boundary materializes exactly two pages.
	payload := []byte("straddles a page boundary")
	at := r.Base + 3*pageSize - 5
	m.Write(at, payload)
	if !bytes.Equal(m.Read(at, len(payload)), payload) {
		t.Fatal("straddling write did not read back")
	}
	if m.ResidentBytes() != 2*pageSize || r.resident() != 2*pageSize {
		t.Fatalf("resident=%d region=%d, want %d", m.ResidentBytes(), r.resident(), 2*pageSize)
	}
}

func TestSmallRegionMaterializesItsSize(t *testing.T) {
	m := new(Memory)
	c := MakeCompletionCell(m, nil)
	c.Set(0x1000, 8)
	if m.ResidentBytes() != CacheLineSize {
		t.Fatalf("resident=%d, want one cache line", m.ResidentBytes())
	}
	r := m.Alloc(pageSize + 10)
	m.Write(r.Base+pageSize, []byte{1})
	if r.resident() != 10 {
		t.Fatalf("short last page resident=%d, want 10", r.resident())
	}
}

func TestFillZeroDropsWholePages(t *testing.T) {
	m := new(Memory)
	r := m.Alloc(2 * pageSize)
	m.Fill(r.Base, 0xAA, 2*pageSize)
	m.Fill(r.Base+pageSize-8, 0, pageSize+8) // tail of page 0, all of page 1
	if m.ResidentBytes() != pageSize {
		t.Fatalf("resident=%d, want the partly zeroed page only", m.ResidentBytes())
	}
	want := append(bytes.Repeat([]byte{0xAA}, 8), make([]byte, 24)...)
	if got := m.Read(r.Base+pageSize-16, 32); !bytes.Equal(got, want) {
		t.Fatalf("around the zeroed span: %x, want %x", got, want)
	}
	m.Fill(r.Base, 0, pageSize)
	if m.ResidentBytes() != 0 {
		t.Fatalf("resident=%d after zeroing everything", m.ResidentBytes())
	}
	// Zero fills still count as writes and wake watchers.
	fired := false
	m.Watch(r.Base, func(Addr, int) { fired = true })
	m.Fill(r.Base, 0, 8)
	if !fired || m.ResidentBytes() != 0 {
		t.Fatalf("zero fill: fired=%v resident=%d", fired, m.ResidentBytes())
	}
}

func TestFreeReusesSameSizeRegion(t *testing.T) {
	m := new(Memory)
	a := m.Alloc(100)
	b := m.Alloc(100)
	m.Write(a.Base, []byte{1, 2, 3})
	m.Free(a)
	m.Free(b)
	if m.LiveBytes() != 0 || m.ResidentBytes() != 0 {
		t.Fatalf("after free: live=%d resident=%d", m.LiveBytes(), m.ResidentBytes())
	}
	// Most recently freed first, and a reused region reads zero.
	if got := m.Alloc(100); got != b {
		t.Fatalf("reuse got region at %#x, want the last freed %#x", got.Base, b.Base)
	}
	if got := m.Alloc(100); got != a || !bytes.Equal(m.Read(a.Base, 3), make([]byte, 3)) {
		t.Fatal("reused region must be the first freed one and read zero")
	}
	if c := m.Alloc(200); c.Base < b.End() {
		t.Fatalf("a new size must come from fresh address space, got %#x", c.Base)
	}
	if m.LiveBytes() != 400 {
		t.Fatalf("live=%d, want 400", m.LiveBytes())
	}
}

// Free moves a region's page to the spare list, and the next page of that
// length to be written takes it: a written 64 B region that is allocated
// again reads zero, and writing it again allocates nothing.
func TestReallocatedRegionReusesZeroedPage(t *testing.T) {
	m := new(Memory)
	r := m.Alloc(CacheLineSize)
	m.Fill(r.Base, 0xff, CacheLineSize)
	m.Free(r)
	if m.ResidentBytes() != 0 {
		t.Fatalf("resident=%d after free, want 0: a spare page holds no contents", m.ResidentBytes())
	}
	r = m.Alloc(CacheLineSize)
	zero := make([]byte, CacheLineSize)
	if !bytes.Equal(m.Read(r.Base, CacheLineSize), zero) {
		t.Fatal("reallocated region reads nonzero before its first write")
	}
	one := []byte{7}
	m.Write(r.Base+9, one)
	want := make([]byte, CacheLineSize)
	want[9] = 7
	if got := m.Read(r.Base, CacheLineSize); !bytes.Equal(got, want) {
		t.Fatalf("reallocated region reads %v after one write, want %v", got, want)
	}
	if m.ResidentBytes() != CacheLineSize {
		t.Fatalf("resident=%d, want %d", m.ResidentBytes(), CacheLineSize)
	}
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the allocation count is for normal builds")
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.Free(r)
		r = m.Alloc(CacheLineSize)
		m.Write(r.Base, one)
	})
	if allocs != 0 {
		t.Fatalf("free, allocate and write of a 64 B region: %.1f allocations, want 0", allocs)
	}
}

// Under simdebug a page on the spare list is poisoned, and taking it back
// checks the poison, so a write through a stale reference to a freed page
// cannot go unnoticed.
func TestDebugCatchesWriteToSparePage(t *testing.T) {
	if !sim.DebugEnabled {
		t.Skip("the check is a simdebug assertion")
	}
	m := new(Memory)
	r := m.Alloc(CacheLineSize)
	m.Write(r.Base, []byte{1})
	stale := r.pages[0]
	m.Free(r)
	stale[3] = 0
	r = m.Alloc(CacheLineSize)
	defer func() {
		if recover() == nil {
			t.Fatal("a written spare page was handed out again")
		}
	}()
	m.Write(r.Base, []byte{1})
}

func TestFreeMisusePanics(t *testing.T) {
	cases := []struct {
		name   string
		misuse func(m *Memory, r *Region)
	}{
		{"use after free", func(m *Memory, r *Region) { m.Free(r); m.Write(r.Base, []byte{1}) }},
		{"read after free", func(m *Memory, r *Region) { m.Free(r); m.Read(r.Base, 1) }},
		{"double free", func(m *Memory, r *Region) { m.Free(r); m.Free(r) }},
		{"cell set after free", func(m *Memory, r *Region) {
			c := MakeCompletionCell(m, nil)
			c.Free()
			c.Set(r.Base, 1)
		}},
		{"cell get after free", func(m *Memory, r *Region) {
			c := MakeCompletionCell(m, nil)
			c.Free()
			c.Get()
		}},
		{"foreign region", func(m *Memory, r *Region) { new(Memory).Free(r) }},
		{"watched region", func(m *Memory, r *Region) {
			m.Watch(r.Base+CacheLineSize, func(Addr, int) {})
			m.Free(r)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := new(Memory)
			r := m.Alloc(4 * CacheLineSize)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", tc.name)
				}
			}()
			tc.misuse(m, r)
		})
	}
}

// Every RVMA buffer and completion cell is a Region: the memory it
// records for Free's ownership check must not move it past the 80 B size
// class.
func TestRegionFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Region{}); n > 80 {
		t.Fatalf("Region is %d B, past the 80 B size class", n)
	}
}

// Property: under any sequence of allocations, frees, writes, zero and
// non-zero fills, memory reads back what a flat byte-array model holds, no
// two live regions overlap, and the live/resident counters match the
// regions they summarize.
func TestPagedMemoryMatchesFlatModel(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		m := new(Memory)
		type shadow struct {
			r    *Region
			want []byte
		}
		var live []*shadow
		sizes := []int{CacheLineSize, 100, pageSize, 3*pageSize + 17}
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(6); {
			case op == 0 || len(live) == 0:
				n := sizes[rng.Intn(len(sizes))]
				live = append(live, &shadow{r: m.Alloc(n), want: make([]byte, n)})
			case op == 1:
				i := rng.Intn(len(live))
				m.Free(live[i].r)
				live = append(live[:i], live[i+1:]...)
			default:
				s := live[rng.Intn(len(live))]
				off := rng.Intn(s.r.Size())
				n := 1 + rng.Intn(s.r.Size()-off)
				var b byte
				if op != 2 {
					b = byte(rng.Intn(256))
				}
				if op == 5 {
					p := make([]byte, n)
					for i := range p {
						p[i] = byte(rng.Intn(256))
					}
					m.Write(s.r.Base+Addr(off), p)
					copy(s.want[off:], p)
				} else {
					m.Fill(s.r.Base+Addr(off), b, n)
					for i := off; i < off+n; i++ {
						s.want[i] = b
					}
				}
			}
		}
		liveBytes, resident := 0, 0
		for i, s := range live {
			if !bytes.Equal(m.Read(s.r.Base, s.r.Size()), s.want) {
				return false
			}
			for _, o := range live[i+1:] {
				if s.r.Base < o.r.End() && o.r.Base < s.r.End() {
					return false
				}
			}
			liveBytes += s.r.Size()
			resident += s.r.resident()
		}
		return m.LiveBytes() == liveBytes && m.ResidentBytes() == resident
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestWatcherObservesExactCellWrite ties the memory layer into the
// latency validation: the MWait watcher must observe the exact (head,
// len) pair the completion unit wrote, never a torn or stale value.
func TestWatcherObservesExactCellWrite(t *testing.T) {
	mem := new(Memory)
	cell := MakeCompletionCell(mem, nil)
	var seen [][2]uint64
	mem.Watch(cell.Addr(), func(Addr, int) {
		h, l := cell.Get()
		seen = append(seen, [2]uint64{uint64(h), uint64(l)})
	})
	cell.Set(0xAAA0, 111)
	cell.Set(0xBBB0, 222)
	if len(seen) != 2 || seen[0] != [2]uint64{0xAAA0, 111} || seen[1] != [2]uint64{0xBBB0, 222} {
		t.Fatalf("watcher observations: %v", seen)
	}
}
