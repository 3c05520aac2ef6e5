package rvma

import (
	"fmt"

	"rvma/internal/memory"
	"rvma/internal/metrics"
	"rvma/internal/sim"
	"rvma/internal/trace"
)

// Buffer is one receive buffer attached to a window's mailbox. Every
// buffer carries its own completion cell (the paper's completion pointer +
// length pair on one cache line) so completions can be waited on
// individually, without a shared completion queue (§IV-C).
type Buffer struct {
	Region *memory.Region
	Cell   *memory.CompletionCell // points at cell; nil once recycled

	// Epoch is the window epoch this buffer served (assigned when the
	// buffer becomes the active head).
	Epoch int64
	// Count is the counter value this buffer's epoch consumed: the
	// threshold for hardware completions, the partial count for IncEpoch
	// completions. It is set when the buffer completes.
	Count int64
	// HighWater is the highest byte offset written plus one — the length
	// the completion unit reports.
	HighWater int
	// Fill is the append position for Managed (stream) mode.
	Fill int
	// CompletedAt records when the completion unit finished this buffer
	// (zero while active/queued).
	CompletedAt sim.Time
	completed   bool
	// completing marks a threshold crossing whose (spilled-counter)
	// completion is pending, so late packets can't double-complete it.
	completing bool
	// owned marks a Region PostBuffer allocated, which Release frees; a
	// region software attached with PostBufferRegion stays software's.
	owned bool
	// retained marks a buffer in the window's Rewind history; released
	// marks one software has handed back. A buffer is recycled once it is
	// released and no longer retained.
	retained bool
	released bool

	win  *Window
	cell memory.CompletionCell
}

// Completed reports whether the completion unit has finished this buffer.
func (b *Buffer) Completed() bool { return b.completed }

// NotificationAddr returns the buffer's completion pointer address: the
// notification_ptr the paper's RVMA_Post_buffer hands back to the caller.
func (b *Buffer) NotificationAddr() memory.Addr { return b.Cell.Addr() }

// Window is an RVMA window: one mailbox virtual address plus its queue of
// posted buffers, threshold, epoch counter and completion history.
type Window struct {
	ep        *Endpoint
	vaddr     VAddr
	threshold int64
	etype     EpochType
	mode      Mode
	closed    bool
	hwCounter bool // whether this window holds a NIC hardware counter

	queue   []*Buffer // queue[0] is the active head buffer
	history []*Buffer // most recent completed buffers, oldest first
	epoch   int64

	// counter is the per-virtual-address completion counter the paper's
	// completion unit maintains ("incrementing a counter associated with
	// the virtual address", §III-B). It carries over across epochs:
	// counts beyond one threshold belong to the next buffer.
	counter int64

	// completionWaiters are one-shot futures resolved at the next epoch
	// completion (convenience over raw cell watching).
	completionWaiters []*sim.Future
	// onCompletion, when set, observes every epoch completion (at the
	// completion-pointer write). Unlike NextCompletion it cannot miss
	// back-to-back completions, so middleware that must see all epochs
	// (e.g. keeping a constant number of buffers posted) uses it.
	onCompletion CompletionObserver

	// pendingSpans are message spans whose final "complete" stage ends at
	// this window's next epoch completion (several messages can share one
	// EpochBytes completion).
	pendingSpans []*metrics.Span

	// maxRewound is the highest epoch ever handed back by Rewind (-1 until
	// the first rewind). Recovery treats a rewound epoch as abandoned, so
	// the completion unit must never complete an epoch at or below it —
	// the "no completion after rewind of the same epoch" safety property
	// (asserted under simdebug in completeHead).
	maxRewound int64

	// Stats.
	MessagesPlaced uint64
	BytesPlaced    uint64
}

// InitWindow creates a window for the mailbox vaddr with the given
// completion threshold and counting mode, and installs it in the NIC
// lookup table. It mirrors the paper's RVMA_Init_window. The threshold
// must be positive; for byte-counted windows the paper recommends making
// it equal to the buffer size with non-overlapping puts (§III-C).
func (ep *Endpoint) InitWindow(vaddr VAddr, threshold int64, etype EpochType) (*Window, error) {
	return ep.InitWindowMode(vaddr, threshold, etype, Steered)
}

// InitWindowMode is InitWindow with an explicit placement mode, exposing
// the paper's Receiver-Managed (stream) variant alongside the default
// Receiver-Steered mode (§IV-B).
func (ep *Endpoint) InitWindowMode(vaddr VAddr, threshold int64, etype EpochType, mode Mode) (*Window, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("%w: threshold %d must be positive", ErrBadArgument, threshold)
	}
	if _, exists := ep.lut[vaddr]; exists {
		return nil, fmt.Errorf("%w: mailbox %#x already has a window", ErrBadArgument, vaddr)
	}
	w := &Window{ep: ep, vaddr: vaddr, threshold: threshold, etype: etype, mode: mode, maxRewound: -1}
	if ep.lut == nil {
		ep.lut = make(map[VAddr]*Window)
	}
	ep.lut[vaddr] = w
	return w, nil
}

// InitWindows opens a window at each of vaddrs, as InitWindow does, and
// posts depth buffers of size bytes to each, as PostBuffer does, window
// by window and buffer by buffer. It builds them in bulk: the windows,
// their queues and their buffers, each with the records of its data
// region and its completion cell, are three arrays made for the call, so
// what opening mailboxes costs in host objects does not grow with their
// number. The windows are returned in vaddrs order and must not be
// copied. It opens nothing and returns an error if an argument is
// invalid, or if a vaddr already has a window or appears twice.
func (ep *Endpoint) InitWindows(vaddrs []VAddr, threshold int64, etype EpochType, depth, size int) ([]Window, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("%w: threshold %d must be positive", ErrBadArgument, threshold)
	}
	if depth < 0 || size <= 0 {
		return nil, fmt.Errorf("%w: %d buffers of %d bytes", ErrBadArgument, depth, size)
	}
	wins := make([]Window, len(vaddrs))
	if ep.lut == nil {
		ep.lut = make(map[VAddr]*Window, len(vaddrs))
	}
	for i, va := range vaddrs {
		if _, exists := ep.lut[va]; exists {
			for _, opened := range vaddrs[:i] {
				delete(ep.lut, opened)
			}
			return nil, fmt.Errorf("%w: mailbox %#x already has a window", ErrBadArgument, va)
		}
		wins[i] = Window{ep: ep, vaddr: va, threshold: threshold, etype: etype, maxRewound: -1}
		ep.lut[va] = &wins[i]
	}
	n := len(vaddrs) * depth
	queues := make([]*Buffer, n)
	slots := make([]bufferSlot, n)
	mem := ep.Memory()
	mem.Grow(2 * n)
	for i := range wins {
		w := &wins[i]
		w.queue = queues[i*depth : i*depth : (i+1)*depth]
		for j := i * depth; j < (i+1)*depth; j++ {
			s := &slots[j]
			w.post(&s.buf, mem.AllocIn(&s.data, size), &s.cell)
			s.buf.owned = true
		}
	}
	return wins, nil
}

// bufferSlot is a buffer InitWindows posts, beside the records of its
// data region and its completion cell's region. One array of them wastes
// less to size-class rounding than an array of buffers and one of regions.
type bufferSlot struct {
	buf        Buffer
	data, cell memory.Region
}

// VAddr returns the window's mailbox virtual address.
func (w *Window) VAddr() VAddr { return w.vaddr }

// Threshold returns the window's epoch threshold.
func (w *Window) Threshold() int64 { return w.threshold }

// EpochType returns the window's counting mode.
func (w *Window) EpochType() EpochType { return w.etype }

// Mode returns the window's placement mode.
func (w *Window) Mode() Mode { return w.mode }

// Closed reports whether the window has been closed.
func (w *Window) Closed() bool { return w.closed }

// Epoch returns the window's current epoch: the number of buffers
// completed so far (the paper's RVMA_Win_get_epoch, which system software
// uses to keep a constant number of buffers posted).
func (w *Window) Epoch() int64 { return w.epoch }

// PostBuffer allocates a buffer of the given size, attaches it to the
// window's mailbox queue, and returns it; the buffer's NotificationAddr is
// the completion pointer host software watches (the paper's
// RVMA_Post_buffer, which returns notification_ptr). Posting to a closed
// window fails. The memory of a released buffer of the same size is
// reused (see Release).
func (w *Window) PostBuffer(size int) (*Buffer, error) {
	if w.closed {
		return nil, ErrClosed
	}
	if size <= 0 {
		return nil, fmt.Errorf("%w: buffer size %d", ErrBadArgument, size)
	}
	b, err := w.PostBufferRegion(w.ep.Memory().Alloc(size))
	if err != nil {
		return nil, err
	}
	b.owned = true
	return b, nil
}

// PostBufferRegion attaches an existing memory region as a receive buffer
// (zero-copy into application memory). A fresh completion cell is
// allocated for it. The returned Buffer may be one software released
// earlier on this endpoint (see Release), never one Rewind can still
// return.
func (w *Window) PostBufferRegion(region *memory.Region) (*Buffer, error) {
	if w.closed {
		return nil, ErrClosed
	}
	if region == nil || region.Size() == 0 {
		return nil, fmt.Errorf("%w: nil or empty region", ErrBadArgument)
	}
	var b *Buffer
	if p := w.ep.pipe; p != nil && len(p.spare) > 0 {
		n := len(p.spare) - 1
		b = p.spare[n]
		p.spare[n] = nil
		p.spare = p.spare[:n]
	} else {
		b = new(Buffer)
	}
	w.post(b, region, nil)
	return b, nil
}

// post attaches region to the window's queue as b, with a fresh
// completion cell whose region record is cellSlot (nil: a new object).
func (w *Window) post(b *Buffer, region *memory.Region, cellSlot *memory.Region) {
	*b = Buffer{Region: region, win: w, cell: memory.MakeCompletionCell(w.ep.Memory(), cellSlot)}
	b.Cell = &b.cell
	wasEmpty := len(w.queue) == 0
	w.queue = append(w.queue, b)
	if wasEmpty {
		w.activateHead()
	}
}

// activateHead marks queue[0] as serving the current epoch and accounts
// NIC counter occupancy: the first active buffer claims (or fails to
// claim) a hardware counter (§III-B).
func (w *Window) activateHead() {
	w.queue[0].Epoch = w.epoch
	if !w.hwCounter {
		if w.ep.cfg.MaxHWCounters == 0 || w.ep.activeCtrs < w.ep.cfg.MaxHWCounters {
			w.hwCounter = true
			w.ep.activeCtrs++
		}
	}
}

// releaseCounter returns the window's hardware counter to the pool.
func (w *Window) releaseCounter() {
	if w.hwCounter {
		w.hwCounter = false
		w.ep.activeCtrs--
	}
}

// Head returns the active buffer, or nil if none is posted.
func (w *Window) Head() *Buffer {
	if len(w.queue) == 0 {
		return nil
	}
	return w.queue[0]
}

// GetBufPtrs fills ptrs with the notification-pointer addresses of the
// window's posted buffers (active first) and returns how many were
// written, mirroring RVMA_Win_get_buf_ptrs.
func (w *Window) GetBufPtrs(ptrs []memory.Addr) int {
	n := 0
	for _, b := range w.queue {
		if n >= len(ptrs) {
			break
		}
		ptrs[n] = b.NotificationAddr()
		n++
	}
	return n
}

// Close prevents further operations on the window's mailbox. Arriving
// puts are discarded and may trigger a NACK (RVMA_Close_win). Buffers
// still queued are dropped; completed history is retained for Rewind.
func (w *Window) Close() {
	if w.closed {
		return
	}
	w.closed = true
	w.releaseCounter()
	delete(w.ep.lut, w.vaddr)
	w.queue = nil
}

// NextCompletion returns a future that resolves at the next epoch
// completion on this window, with the completed *Buffer as its value. It
// is a host-software convenience over watching the completion cell.
// Completions that occur while no waiter (and no completion handler) is
// registered are not banked; software that must observe every epoch uses
// SetCompletionHandler.
func (w *Window) NextCompletion() *sim.Future {
	f := sim.NewFuture()
	w.completionWaiters = append(w.completionWaiters, f)
	return f
}

// CompletionObserver observes every epoch completion on a window
// (SetCompletionObserver).
type CompletionObserver interface {
	// Completed runs at the completion-pointer write of b, the buffer
	// whose epoch completed.
	Completed(b *Buffer)
}

// completionFunc is SetCompletionHandler's function as an observer.
type completionFunc func(*Buffer)

func (fn completionFunc) Completed(b *Buffer) { fn(b) }

// SetCompletionHandler installs fn to observe every epoch completion on
// the window, invoked at the completion-pointer write with the completed
// buffer. Passing nil removes the handler.
func (w *Window) SetCompletionHandler(fn func(*Buffer)) {
	if fn == nil {
		w.onCompletion = nil
		return
	}
	w.onCompletion = completionFunc(fn)
}

// SetCompletionObserver is SetCompletionHandler for an observer that is
// a record of its own, as NackHandler is: software that keeps one record
// per mailbox makes no closure per window. A nil h removes the observer.
func (w *Window) SetCompletionObserver(h CompletionObserver) { w.onCompletion = h }

// IncEpoch hands the active buffer to software before its threshold is
// met (RVMA_Win_inc_epoch): useful for stream semantics, unknown message
// sizes, and error recovery on partial buffers (§III-C). The host issues a
// doorbell to the NIC; the completion unit then completes the buffer with
// its current high-water length. The returned future resolves with the
// completed *Buffer.
func (w *Window) IncEpoch() (*sim.Future, error) {
	if w.closed {
		return nil, ErrClosed
	}
	if len(w.queue) == 0 {
		return nil, ErrNoBuffer
	}
	ep := w.ep
	eng := ep.eng
	// The future resolves with the completed buffer once the completion
	// unit's cell write lands, exactly like a hardware completion.
	f := w.NextCompletion()
	// Host -> NIC doorbell, then the completion unit runs.
	doorbell := ep.nic.Bus().TransferTime(eng.Engine, ep.nic.Profile().DoorbellBytes)
	eng.At(doorbell, func() {
		if w.closed || len(w.queue) == 0 || w.queue[0].completing {
			if !f.Done() {
				f.Complete(eng.Engine, nil)
			}
			return
		}
		ep.Stats.EarlyCompletions++
		if ep.tracer != nil {
			ep.tracer.Eventf(trace.CatRVMA, "node %d win %#x inc_epoch at count %d",
				ep.Node(), w.vaddr, w.counter)
		}
		buf := w.queue[0]
		buf.completing = true
		buf.Count = w.counter
		w.counter = 0 // the next epoch starts a fresh count
		w.completeHead()
	})
	return f, nil
}

// maybeComplete runs the completion check: while the per-address counter
// has accumulated at least one threshold, complete the head buffer,
// carrying excess counts into the next epoch. Counts beyond one threshold
// belong to the next buffer — the per-address counter is how the paper's
// hardware keeps back-to-back messages from losing completions.
//
// A window whose counter lives in host memory (no free NIC counter) pays
// the spill penalty — a host-memory read-modify-write round trip — before
// its completion becomes observable (§III-B); counting order is
// unaffected, only the notification lags.
func (w *Window) maybeComplete() {
	for w.counter >= w.threshold {
		buf := w.Head()
		if buf == nil || buf.completing {
			return
		}
		buf.completing = true
		if w.hwCounter {
			w.counter -= w.threshold
			buf.Count = w.threshold
			w.completeHead()
			continue
		}
		w.ep.spill(buf)
		return
	}
}

// completeHead runs the completion unit on the active buffer at the
// current simulated time: write (head, length) to the completion cell over
// the bus, advance the epoch, retire the buffer to history, and activate
// the next posted buffer (or deactivate the LUT entry's counter if the
// queue drained). It returns the completed buffer. Callers are on the NIC
// clock already (packet DMA completion or doorbell).
//
//rvmalint:hot
func (w *Window) completeHead() *Buffer {
	ep := w.ep
	buf := w.queue[0]
	if sim.DebugEnabled {
		sim.Assertf(buf.Epoch > w.maxRewound,
			"rvma node %d win %#x completing epoch %d at or below rewound epoch %d",
			ep.Node(), w.vaddr, buf.Epoch, w.maxRewound)
	}
	// Pop in place, so a mailbox that reposts what it consumes keeps
	// appending into the same backing array instead of walking off it.
	copy(w.queue, w.queue[1:])
	w.queue[len(w.queue)-1] = nil
	w.queue = w.queue[:len(w.queue)-1]
	w.epoch++
	ep.Stats.Completions++

	// Retire into bounded history for Rewind. The oldest entry ages out,
	// and is recycled if software has already released it.
	if depth := ep.cfg.HistoryDepth; depth > 0 {
		buf.retained = true
		if len(w.history) == depth {
			old := w.history[0]
			copy(w.history, w.history[1:])
			w.history[depth-1] = buf
			old.retained = false
			if old.released {
				w.recycle(old)
			}
		} else {
			//rvmalint:allow hotalloc -- history fills to HistoryDepth once per window, then rotates in place
			w.history = append(w.history, buf)
		}
	}

	if len(w.queue) > 0 {
		w.activateHead()
	} else {
		w.releaseCounter()
	}

	// The completion pointer write: one 16-byte PCIe write of (head, len),
	// landing after every write issued to the bus before it.
	c := completionWrite{buf: buf, length: buf.HighWater, epoch: w.epoch, unitAt: ep.eng.Now(),
		waiters: w.completionWaiters, spans: w.pendingSpans}
	if w.mode == Managed {
		c.length = buf.Fill
	}
	w.completionWaiters, w.pendingSpans = nil, nil
	ep.write(ep.nic.Bus().TransferTime(ep.eng.Engine, 16), c)
	return buf
}

// Release's misuse errors, built once so that Release allocates nothing.
var (
	errForeignBuffer  = fmt.Errorf("%w: buffer was not posted to this mailbox", ErrBadArgument)
	errReleasePending = fmt.Errorf("%w: release of a buffer that has not completed", ErrBadArgument)
	errReleaseTwice   = fmt.Errorf("%w: buffer released twice", ErrBadArgument)
)

// Release hands a completed buffer back once software has consumed it. Its
// completion cell, and its region when PostBuffer allocated it, return to
// the node's memory, and the next PostBuffer of the same size reuses them;
// the Buffer itself goes to the endpoint's spare list, and the next post
// to any of its windows reuses it. A mailbox whose software releases every
// buffer it consumes therefore holds only its posted buffers and its
// Rewind history, however many epochs it runs. A buffer still in that
// history stays intact, so Rewind can retrieve it, until later completions
// age it out; only then is it recycled. Software must not touch a buffer
// after releasing it.
//
//rvmalint:hot
func (w *Window) Release(b *Buffer) error {
	switch {
	case b == nil || b.win != w:
		return errForeignBuffer
	case !b.completed:
		return errReleasePending
	case b.released:
		return errReleaseTwice
	}
	b.released = true
	if !b.retained {
		w.recycle(b)
	}
	return nil
}

// recycle returns a released buffer's memory to the node and the buffer
// to the endpoint's spare list. The caller ensures it has left Rewind
// history.
func (w *Window) recycle(b *Buffer) {
	b.Cell.Free()
	if b.owned {
		w.ep.Memory().Free(b.Region)
	}
	b.Region, b.Cell = nil, nil
	p := w.ep.pipeline()
	//rvmalint:allow hotalloc -- the spare list grows to the endpoint's peak of released buffers awaiting a repost, then stays
	p.spare = append(p.spare, b)
}

// WhenPlaced returns a future that resolves once at least n messages have
// been fully placed into this window since it was created (MessagesPlaced
// >= n), observed by host software polling at the given interval. This is
// the fallback §III-B describes for epochs whose operation count is *not*
// known when buffers are posted: middleware (e.g. an MPI RMA fence that
// learns the op count from control messages) polls and then hands the
// buffer over with IncEpoch. When counts are known a priori, set the
// window threshold instead and no polling happens at all.
func (w *Window) WhenPlaced(n uint64, interval sim.Time) *sim.Future {
	f := sim.NewFuture()
	eng := w.ep.eng
	if w.MessagesPlaced >= n {
		eng.Schedule(w.ep.nic.Profile().HostCompletionOverhead, func() {
			f.Complete(eng.Engine, nil)
		})
		return f
	}
	memory.StartPoller(eng, interval,
		func() bool { return w.MessagesPlaced >= n },
		func() {
			eng.Schedule(w.ep.nic.Profile().HostCompletionOverhead, func() {
				f.Complete(eng.Engine, nil)
			})
		})
	return f
}

// Rewind returns the buffer that completed k epochs ago (k=1 is the most
// recently completed buffer), implementing the paper's hardware fault-
// tolerance: "the address of buffers used in previous communication epochs
// could be retrieved from an RVMA NIC after a failure" (§IV-F). The
// caveat the paper states applies here too: the contents are only the
// epoch-k data if the application has not overwritten them.
func (w *Window) Rewind(k int) (*Buffer, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: rewind depth %d", ErrBadArgument, k)
	}
	if k > len(w.history) {
		return nil, fmt.Errorf("%w: only %d epochs retained", ErrNoHistory, len(w.history))
	}
	w.ep.Stats.Rewinds++
	w.ep.reg.Timeline().Counter(w.ep.Node(), "rvma.rewinds",
		w.ep.Engine().Now(), float64(w.ep.Stats.Rewinds))
	if w.ep.tracer != nil {
		w.ep.tracer.Eventf(trace.CatRVMA, "node %d win %#x rewind k=%d",
			w.ep.Node(), w.vaddr, k)
	}
	buf := w.history[len(w.history)-k]
	if buf.Epoch > w.maxRewound {
		w.maxRewound = buf.Epoch
	}
	return buf, nil
}

// HistoryDepth returns how many completed epochs are currently retained.
func (w *Window) HistoryDepth() int { return len(w.history) }
