// Package memory models a node's host DRAM as seen by a NIC's DMA engine
// and by host software.
//
// The model is functional as well as temporal: writes carry real bytes, so
// tests can assert that out-of-order packet placement still yields byte-
// identical buffers (the property RVMA's offset-based placement relies on,
// paper §IV-D). Completion notification is modeled with cache-line
// watchers, which is how the paper's Monitor/MWait wake-on-write mechanism
// observes the NIC's completion-pointer write (§IV-C).
//
// Host memory costs the simulator only what the model touches. A region is
// backed by demand-zero pages: a page takes host memory on the first write
// into it and reads as zero before that, so buffers that only ever carry
// sizes and timing (motif runs) cost their bookkeeping, not their bytes.
// Freed regions go back to the allocator and are reused by the next
// allocation of the same size, so a node's address space is bounded by
// what is live rather than by everything ever allocated. Their pages go
// to a spare list that the next materialization of a page of the same
// length takes and zeroes, so a region freed and allocated again (a
// reposted completion cell) costs no host allocation on its next write.
package memory

import (
	"fmt"
	"math"
	"sort"

	"rvma/internal/sim"
)

// Addr is a host physical address in the simulated memory.
type Addr uint64

// CacheLineSize is the coherence granularity: Monitor/MWait watchers fire
// on any write that touches the watched address's cache line.
const CacheLineSize = 64

// pageSize is the demand-zero backing granularity: a region's bytes are
// materialized one page at a time, on the first write that touches the
// page. A region smaller than a page is materialized whole.
const pageSize = 4096

// sparePoison fills a page on the spare list in simdebug builds.
const sparePoison = 0xa5

// lineOf returns the cache line index containing a.
func lineOf(a Addr) Addr { return a / CacheLineSize }

// Region is an allocated span of simulated host memory.
type Region struct {
	Base Addr
	size int32 // beside freed, in one word
	// freed marks a region Free returned, until an allocation reuses it.
	freed bool
	// pages holds the region's bytes, pageSize per entry (the last entry
	// may be shorter). The slice is nil until the first write, and an
	// entry is nil until a write touches its page: both read as zero.
	// Free empties the entries but keeps the slice for the region's next
	// allocation, which has the same size.
	pages [][]byte
	// one backs pages for a single-page region, so materializing a small
	// region (a completion cell) allocates only its bytes.
	one [1][]byte
	mem *Memory // the memory that allocated the region, for Free's check
}

// Size returns the region length in bytes.
func (r *Region) Size() int { return int(r.size) }

// End returns the first address past the region.
func (r *Region) End() Addr { return r.Base + Addr(r.size) }

// Contains reports whether [a, a+n) lies entirely within the region.
func (r *Region) Contains(a Addr, n int) bool {
	return a >= r.Base && a+Addr(n) <= r.End() && n >= 0
}

// resident returns the bytes of the region's materialized pages.
func (r *Region) resident() int {
	n := 0
	for _, p := range r.pages {
		n += len(p)
	}
	return n
}

// pageLen returns the length of page i.
func (r *Region) pageLen(i int) int {
	if rest := int(r.size) - i*pageSize; rest < pageSize {
		return rest
	}
	return pageSize
}

// span calls fn for each page-bounded piece of the region's bytes
// [off, off+n): page index, offset within the page, and piece length.
func (r *Region) span(off, n int, fn func(page, at, k int)) {
	for n > 0 {
		i, at := off/pageSize, off%pageSize
		k := r.pageLen(i) - at
		if k > n {
			k = n
		}
		fn(i, at, k)
		off += k
		n -= k
	}
}

// Watcher observes writes to a single cache line, modeling a hardware
// thread parked in MWait on that line.
type Watcher struct {
	line Addr
	fn   func(addr Addr, n int)
	mem  *Memory
	dead bool
}

// Cancel deregisters the watcher; subsequent writes no longer invoke it.
func (w *Watcher) Cancel() {
	if w.dead {
		return
	}
	w.dead = true
	ws := w.mem.watchers[w.line]
	for i, other := range ws {
		if other == w {
			w.mem.watchers[w.line] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(w.mem.watchers[w.line]) == 0 {
		delete(w.mem.watchers, w.line)
	}
}

// Memory is one node's host memory. Allocation bumps a pointer through the
// address space, except that a freed region is handed to the next
// allocation of exactly its size (most recently freed first), so software
// that frees what it has consumed runs in a bounded address space.
//
// The zero value is an empty memory, and each of its tables is made on
// first use, so a NIC holds its node's memory by value and a node that
// never allocates or watches costs nothing beyond the struct.
type Memory struct {
	next     Addr              // the top of the address space; 0 until the first Alloc
	regions  []*Region         // sorted by Base; freed regions stay until reused
	free     map[int]*freeList // what Free returned, by length
	watchers map[Addr][]*Watcher

	live     int // bytes in allocated, not freed regions
	resident int // bytes in materialized pages

	// Stats for experiment reports.
	BytesWritten uint64
	BytesRead    uint64
	Writes       uint64
	Reads        uint64
}

// freeList holds what Free returned of one length: the regions of that
// size and the pages of that length they held, each most recently freed
// last. Alloc takes the regions, page the pages (zeroing them). Spare
// pages are not resident: they hold no contents.
type freeList struct {
	regions []*Region
	pages   [][]byte
}

// freeOf returns the free list of length n, creating it on first use.
func (m *Memory) freeOf(n int) *freeList {
	if m.free == nil {
		m.free = make(map[int]*freeList)
	}
	fl := m.free[n]
	if fl == nil {
		fl = &freeList{}
		m.free[n] = fl
	}
	return fl
}

// baseAddr is where the address space starts: nonzero, so that Addr(0)
// can serve as a null sentinel.
const baseAddr Addr = 0x1000

// Alloc returns a cache-line-aligned region of the given size that reads
// as zero. It reuses the most recently freed region of that size, if any,
// and otherwise carves a new one from the top of the address space. Either
// way no page is materialized until it is written.
func (m *Memory) Alloc(size int) *Region { return m.AllocIn(nil, size) }

// Grow makes room in the memory's region index for n more regions, so
// that a caller about to allocate them in bulk grows it once, not one
// doubling at a time.
func (m *Memory) Grow(n int) {
	if cap(m.regions)-len(m.regions) < n {
		regions := make([]*Region, len(m.regions), len(m.regions)+n)
		copy(regions, m.regions)
		m.regions = regions
	}
}

// AllocIn is Alloc for a caller that keeps its region records in bulk, in
// an array it allocates once: a region carved fresh from the address
// space is built in slot, a zero Region that nothing else uses, instead
// of in a new object. A reused region is the freed one, and slot stays
// unused. A nil slot makes a new object, as Alloc does.
func (m *Memory) AllocIn(slot *Region, size int) *Region {
	if size < 0 || size > math.MaxInt32 {
		panic(fmt.Sprintf("memory: allocation of %d bytes outside [0, MaxInt32]", size))
	}
	m.live += size
	if fl := m.free[size]; fl != nil && len(fl.regions) > 0 {
		n := len(fl.regions) - 1
		r := fl.regions[n]
		fl.regions[n] = nil
		fl.regions = fl.regions[:n]
		r.freed = false
		return r
	}
	if m.next == 0 {
		m.next = baseAddr
	}
	// Align base to a cache line, as real allocators for DMA targets do.
	base := (m.next + CacheLineSize - 1) / CacheLineSize * CacheLineSize
	r := slot
	if r == nil {
		r = new(Region)
	}
	*r = Region{Base: base, size: int32(size), mem: m}
	m.next = base + Addr(size)
	m.regions = append(m.regions, r)
	return r
}

// Free returns r to the allocator and moves its pages to the spare list,
// so the allocation that reuses it reads zero exactly like fresh memory.
// Any later access through r panics until then. Freeing a region twice, a
// region of another Memory, or a region a watcher is parked on is a model
// bug and panics.
func (m *Memory) Free(r *Region) {
	if r.freed {
		panic(fmt.Sprintf("memory: double free of region at %#x", r.Base))
	}
	if r.mem != m {
		panic(fmt.Sprintf("memory: free of region at %#x not allocated here", r.Base))
	}
	if len(m.watchers) > 0 && r.size > 0 {
		for line := lineOf(r.Base); line <= lineOf(r.End()-1); line++ {
			if len(m.watchers[line]) > 0 {
				panic(fmt.Sprintf("memory: free of region at %#x with a watcher on %#x",
					r.Base, line*CacheLineSize))
			}
		}
	}
	m.resident -= r.resident()
	m.live -= int(r.size)
	for i, pg := range r.pages {
		if pg == nil {
			continue
		}
		if sim.DebugEnabled {
			// Poison the page: page checks the poison is intact when it
			// takes the page back, so a write through a stale reference
			// to a freed page cannot go unnoticed.
			for j := range pg {
				pg[j] = sparePoison
			}
		}
		fl := m.freeOf(len(pg))
		fl.pages = append(fl.pages, pg)
		r.pages[i] = nil
	}
	r.freed = true
	fl := m.freeOf(int(r.size))
	fl.regions = append(fl.regions, r)
}

// DropPools releases the spare pages, whose number is set by the run's
// peak of freed, materialized regions awaiting reuse. Call it between
// runs, not inside one.
func (m *Memory) DropPools() {
	for _, fl := range m.free {
		fl.pages = nil
	}
}

// LiveBytes returns the bytes in allocated regions that have not been
// freed: the node's simulated memory footprint.
func (m *Memory) LiveBytes() int { return m.live }

// ResidentBytes returns the bytes of materialized pages: the host memory
// the simulation itself holds for this node's contents.
func (m *Memory) ResidentBytes() int { return m.resident }

// lookup locates the region (live or freed) whose span contains [a, a+n).
func (m *Memory) lookup(a Addr, n int) *Region {
	i := sort.Search(len(m.regions), func(i int) bool {
		return m.regions[i].End() > a
	})
	if i < len(m.regions) && m.regions[i].Contains(a, n) {
		return m.regions[i]
	}
	return nil
}

// regionFor locates the live region containing [a, a+n), or nil.
func (m *Memory) regionFor(a Addr, n int) *Region {
	if r := m.lookup(a, n); r != nil && !r.freed {
		return r
	}
	return nil
}

// page returns page i of r, materializing it (zeroed) if untouched: from
// the spare list if it holds a page of that length, else freshly.
//
//rvmalint:hot
func (m *Memory) page(r *Region, i int) []byte {
	if r.pages == nil {
		if r.size <= pageSize {
			r.pages = r.one[:]
		} else {
			//rvmalint:allow hotalloc -- once per region: Free keeps the page table for the region's next allocation
			r.pages = make([][]byte, (int(r.size)+pageSize-1)/pageSize)
		}
	}
	if r.pages[i] != nil {
		return r.pages[i]
	}
	n := r.pageLen(i)
	var pg []byte
	if fl := m.free[n]; fl != nil && len(fl.pages) > 0 {
		k := len(fl.pages) - 1
		pg = fl.pages[k]
		fl.pages[k] = nil
		fl.pages = fl.pages[:k]
		if sim.DebugEnabled {
			j := 0
			for j < n && pg[j] == sparePoison {
				j++
			}
			sim.Assertf(j == n, "memory: spare page of %d bytes written at byte %d after Free", n, j)
		}
		clear(pg)
	} else {
		//rvmalint:allow hotalloc -- spare-list miss: the node has no freed page of this length to reuse
		pg = make([]byte, n)
	}
	r.pages[i] = pg
	m.resident += n
	return pg
}

// Write stores p at address a. It panics on an out-of-bounds access: the
// models compute every DMA target address, so a bad address is a model bug,
// not a recoverable condition. Watchers on any touched cache line fire
// after the bytes land.
func (m *Memory) Write(a Addr, p []byte) {
	if len(p) == 0 {
		return
	}
	r := m.regionFor(a, len(p))
	if r == nil {
		panic(fmt.Sprintf("memory: write of %d bytes at %#x outside any region", len(p), a))
	}
	m.write(r, a, p)
}

// write stores p at a, inside r.
func (m *Memory) write(r *Region, a Addr, p []byte) {
	if r.freed {
		panic(fmt.Sprintf("memory: write of %d bytes at %#x in a freed region", len(p), a))
	}
	src := p
	r.span(int(a-r.Base), len(p), func(i, at, k int) {
		copy(m.page(r, i)[at:at+k], src[:k])
		src = src[k:]
	})
	m.Writes++
	m.BytesWritten += uint64(len(p))
	m.notify(a, len(p))
}

// Fill stores n copies of byte b starting at a, with watcher semantics
// identical to Write. It avoids materializing large payload slices when the
// content doesn't matter to a test. Filling with zero materializes nothing:
// untouched pages already read as zero, and a page the fill covers whole
// is dropped back to demand-zero.
func (m *Memory) Fill(a Addr, b byte, n int) {
	if n == 0 {
		return
	}
	r := m.regionFor(a, n)
	if r == nil {
		panic(fmt.Sprintf("memory: fill of %d bytes at %#x outside any region", n, a))
	}
	r.span(int(a-r.Base), n, func(i, at, k int) {
		if b == 0 {
			if r.pages == nil || r.pages[i] == nil {
				return
			}
			if k == len(r.pages[i]) {
				m.resident -= k
				r.pages[i] = nil
				return
			}
		}
		d := m.page(r, i)[at : at+k]
		for j := range d {
			d[j] = b
		}
	})
	m.Writes++
	m.BytesWritten += uint64(n)
	m.notify(a, n)
}

// Read copies n bytes starting at a into a fresh slice.
func (m *Memory) Read(a Addr, n int) []byte {
	r := m.regionFor(a, n)
	if r == nil {
		panic(fmt.Sprintf("memory: read of %d bytes at %#x outside any region", n, a))
	}
	out := make([]byte, n)
	m.read(r, a, out)
	return out
}

// read copies len(dst) bytes starting at a, inside r, into dst.
func (m *Memory) read(r *Region, a Addr, dst []byte) {
	if r.freed {
		panic(fmt.Sprintf("memory: read of %d bytes at %#x in a freed region", len(dst), a))
	}
	m.Reads++
	m.BytesRead += uint64(len(dst))
	r.span(int(a-r.Base), len(dst), func(i, at, k int) {
		if r.pages != nil && r.pages[i] != nil {
			copy(dst[:k], r.pages[i][at:at+k])
		}
		dst = dst[k:]
	})
}

// notify fires watchers registered on any cache line overlapped by the
// write [a, a+n). Watchers may cancel themselves (or others) from inside
// the callback, so iteration works on a snapshot.
func (m *Memory) notify(a Addr, n int) {
	if len(m.watchers) == 0 {
		return
	}
	first, last := lineOf(a), lineOf(a+Addr(n)-1)
	for line := first; line <= last; line++ {
		ws := m.watchers[line]
		if len(ws) == 0 {
			continue
		}
		snapshot := make([]*Watcher, len(ws))
		copy(snapshot, ws)
		for _, w := range snapshot {
			if !w.dead {
				w.fn(a, n)
			}
		}
	}
}

// Watch registers fn to be invoked whenever a write touches the cache line
// containing a. This models arming Monitor/MWait on the completion cell:
// the paper notes wake-up happens in as little as one clock cycle, so the
// simulation treats the callback as free and leaves any modeled wake
// latency to the caller.
func (m *Memory) Watch(a Addr, fn func(addr Addr, n int)) *Watcher {
	w := &Watcher{line: lineOf(a), fn: fn, mem: m}
	if m.watchers == nil {
		m.watchers = make(map[Addr][]*Watcher)
	}
	m.watchers[w.line] = append(m.watchers[w.line], w)
	return w
}

// WatcherCount returns the number of live watchers (for leak tests).
func (m *Memory) WatcherCount() int {
	n := 0
	for _, ws := range m.watchers {
		n += len(ws)
	}
	return n
}

// CompletionCell is a cache-line-aligned pair of u64 slots in host memory:
// the completed buffer's head address and its completed length. This is
// precisely the layout the paper prescribes for RVMA completion
// notification ("typically these two completion addresses will be
// consecutive and be aligned to a single cache line", §III-B).
type CompletionCell struct {
	mem *Memory
	reg *Region
}

// MakeCompletionCell allocates a zeroed completion cell in m, its region
// record in slot as AllocIn places it (nil: a new object). It returns the
// cell by value, so an owner (an RVMA buffer) can embed it.
func MakeCompletionCell(m *Memory, slot *Region) CompletionCell {
	// A full cache line so the cell never shares a line with another cell:
	// false sharing would make MWait wake-ups ambiguous.
	return CompletionCell{mem: m, reg: m.AllocIn(slot, CacheLineSize)}
}

// Addr returns the cell's address (the completion pointer address handed to
// the NIC when a buffer is posted).
func (c *CompletionCell) Addr() Addr { return c.reg.Base }

// Set writes (bufferHead, length) into the cell. In the model this is the
// NIC's PCIe write; watchers on the line observe it. The cell writes its
// own region, so it needs no address lookup.
func (c *CompletionCell) Set(head Addr, length int) {
	var b [16]byte
	putU64(b[0:8], uint64(head))
	putU64(b[8:16], uint64(length))
	c.mem.write(c.reg, c.reg.Base, b[:])
}

// Get reads the cell, returning the last completed buffer's head address
// and length. A zero head means "no completion yet this epoch".
func (c *CompletionCell) Get() (head Addr, length int) {
	var b [16]byte
	c.mem.read(c.reg, c.reg.Base, b[:])
	return Addr(getU64(b[0:8])), int(getU64(b[8:16]))
}

// Clear zeroes the cell (used when re-arming a buffer for a new epoch).
func (c *CompletionCell) Clear() { c.Set(0, 0) }

// Free returns the cell's cache line to the memory it came from. The cell
// must not be used afterwards.
func (c *CompletionCell) Free() { c.mem.Free(c.reg) }

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// Poller models host software polling a memory location at a fixed
// interval, the fallback notification scheme for architectures without
// MWait (§IV-C: "the memory location can be polled for change; this
// provides a similarly low latency but expends more energy"). It invokes
// check every interval until check returns true or the poller is stopped,
// then calls done with the completion time.
type Poller struct {
	stopped bool
	Polls   int
}

// StartPoller begins polling. The first check happens one interval from
// now (the poller was presumably checked synchronously before arming).
// The tick events carry the caller's component label, so poll traffic is
// attributed to the endpoint that armed the poller, not to this package.
func StartPoller(e sim.Tagged, interval sim.Time, check func() bool, done func()) *Poller {
	if interval <= 0 {
		panic("memory: poll interval must be positive")
	}
	p := &Poller{}
	var tick func()
	tick = func() {
		if p.stopped {
			return
		}
		p.Polls++
		if check() {
			done()
			return
		}
		e.Schedule(interval, tick)
	}
	e.Schedule(interval, tick)
	return p
}

// Stop cancels future polls.
func (p *Poller) Stop() { p.stopped = true }
