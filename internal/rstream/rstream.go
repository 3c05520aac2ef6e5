// Package rstream provides byte-stream (sockets-like) communication over
// Receiver-Managed RVMA, the paper's §IV-B alternative mode: "It is
// possible to design a network that also counts received bytes and places
// incoming packets for a given buffer consecutively in memory. RVMA was
// designed to support this alternative mode to match the semantics of
// socket network interfaces. This allows RVMA to efficiently support
// sockets-based network code with very minimal middleware support".
//
// A Conn is one direction-pair of a connected stream. The receive side is
// a Managed-mode RVMA window whose NIC appends arriving bytes at the fill
// pointer; segments complete at the window's byte threshold, and a reader
// that needs data sooner claims the partial segment with IncEpoch — the
// exact use case §III-C gives for RVMA_Win_inc_epoch ("stream-like
// semantics where it is desirable to process all messages that have
// arrived so far").
//
// Managed placement preserves arrival order, so — like TCP over a single
// path — streams require an order-preserving network: connections refuse
// to open over adaptively routed fabrics. (Steered RVMA exists precisely
// to lift that restriction for record-oriented traffic.)
package rstream

import (
	"errors"
	"fmt"

	"rvma/internal/rvma"
	"rvma/internal/sim"
)

// Errors returned by the stream API.
var (
	ErrUnordered = errors.New("rstream: managed-mode streams require an order-preserving (static-routed) network")
	ErrClosed    = errors.New("rstream: connection closed")
)

// Config parameterizes a connection pair.
type Config struct {
	// SegmentBytes is the receive segment size: the Managed window's byte
	// threshold and buffer size. Defaults to 8 KiB.
	SegmentBytes int
	// Depth is how many receive segments stay posted. Defaults to 4.
	Depth int
}

// Conn is one endpoint of a bidirectional byte stream.
type Conn struct {
	ep   *rvma.Endpoint
	peer int
	cfg  Config

	sendMbox rvma.VAddr
	recvWin  *rvma.Window

	// Completed segments not yet fully consumed, in completion order.
	segments []segment
	buffered int
	waiters  []*waiter
	closed   bool
	polling  bool // a blocked reader's arrival poll is running
	claiming bool // an IncEpoch partial claim is in flight

	// Stats.
	BytesSent     uint64
	BytesConsumed uint64
	EarlyClaims   uint64 // IncEpoch partial-segment claims
}

type segment struct {
	data []byte
	pos  int
}

type waiter struct {
	n int
	f *sim.Future
}

// Pair connects two endpoints as a full-duplex stream, like a pair of
// connected sockets. The mailbox addresses derive from a connection id so
// multiple pairs can coexist.
func Pair(a, b *rvma.Endpoint, connID uint64, cfg Config) (*Conn, *Conn, error) {
	if a.Engine() != b.Engine() {
		return nil, nil, fmt.Errorf("rstream: endpoints on different engines")
	}
	if !a.NIC().Network().Config().Routing.Ordered() {
		return nil, nil, ErrUnordered
	}
	if !a.Config().CarryData || !b.Config().CarryData {
		return nil, nil, fmt.Errorf("rstream: endpoints must carry data")
	}
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 8 * 1024
	}
	if cfg.Depth == 0 {
		cfg.Depth = 4
	}
	if cfg.SegmentBytes < 1 || cfg.Depth < 1 {
		return nil, nil, fmt.Errorf("rstream: invalid config %+v", cfg)
	}

	mboxAB := rvma.VAddr(0x57_0000_0000 | connID<<1)     // a -> b
	mboxBA := rvma.VAddr(0x57_0000_0000 | connID<<1 | 1) // b -> a

	ca, err := newConn(a, b.Node(), mboxAB, mboxBA, cfg)
	if err != nil {
		return nil, nil, err
	}
	cb, err := newConn(b, a.Node(), mboxBA, mboxAB, cfg)
	if err != nil {
		return nil, nil, err
	}
	return ca, cb, nil
}

// newConn opens the receive window (on recvMbox) and records the send
// mailbox.
func newConn(ep *rvma.Endpoint, peer int, sendMbox, recvMbox rvma.VAddr, cfg Config) (*Conn, error) {
	win, err := ep.InitWindowMode(recvMbox, int64(cfg.SegmentBytes), rvma.EpochBytes, rvma.Managed)
	if err != nil {
		return nil, err
	}
	c := &Conn{ep: ep, peer: peer, cfg: cfg, sendMbox: sendMbox, recvWin: win}
	for i := 0; i < cfg.Depth; i++ {
		if _, err := win.PostBuffer(cfg.SegmentBytes); err != nil {
			return nil, err
		}
	}
	win.SetCompletionHandler(func(buf *rvma.Buffer) {
		// Repost to hold depth, then bank the completed segment's bytes.
		c.claiming = false
		if !c.closed {
			if _, err := win.PostBuffer(cfg.SegmentBytes); err != nil {
				panic(err)
			}
		}
		// Bank the segment's bytes, then hand the buffer back for the
		// reposts to reuse.
		_, length := buf.Cell.Get()
		data := c.ep.Memory().Read(buf.Region.Base, length)
		if err := win.Release(buf); err != nil {
			panic(err)
		}
		if length > 0 {
			c.segments = append(c.segments, segment{data: data})
			c.buffered += length
		}
		c.serveWaiters()
	})
	return c, nil
}

// Buffered returns the number of completed, unread bytes.
func (c *Conn) Buffered() int { return c.buffered }

// Write streams p to the peer. It is nonblocking: the returned future
// resolves at local send completion. Like a socket write, the byte stream
// has no message boundaries — the peer's reads see only bytes.
func (c *Conn) Write(p []byte) (*sim.Future, error) {
	if c.closed {
		return nil, ErrClosed
	}
	if len(p) == 0 {
		f := sim.NewFuture()
		f.Complete(c.ep.Engine(), nil)
		return f, nil
	}
	c.BytesSent += uint64(len(p))
	// Managed mode ignores offsets; send in segment-sized puts so no
	// single put can overrun a receive segment boundary... the NIC splits
	// across segments anyway, but bounding puts keeps each put's bytes in
	// at most two segments.
	var last *rvma.PutOp
	for off := 0; off < len(p); off += c.cfg.SegmentBytes {
		end := off + c.cfg.SegmentBytes
		if end > len(p) {
			end = len(p)
		}
		last = c.ep.Put(c.peer, c.sendMbox, 0, p[off:end])
	}
	return last.Local, nil
}

// Read returns a future resolving with exactly n bytes once they are
// available. If the stream has some bytes buffered in the NIC's partially
// filled segment but not enough completed, the reader claims the partial
// segment with IncEpoch (the §III-C stream-semantics path) rather than
// waiting for the threshold.
func (c *Conn) Read(n int) (*sim.Future, error) {
	if c.closed {
		return nil, ErrClosed
	}
	if n <= 0 {
		return nil, fmt.Errorf("rstream: read of %d bytes", n)
	}
	f := sim.NewFuture()
	if c.buffered >= n {
		f.Complete(c.ep.Engine(), c.take(n))
		return f, nil
	}
	c.waiters = append(c.waiters, &waiter{n: n, f: f})
	c.ensurePoll()
	return f, nil
}

// ensurePoll runs a host-side arrival poll while a reader is blocked: a
// blocking socket read spins (or sleeps on MWait) until enough bytes are
// in, claiming partial segments as they become useful.
func (c *Conn) ensurePoll() {
	if c.polling || len(c.waiters) == 0 || c.closed {
		return
	}
	c.polling = true
	interval := c.ep.NIC().Profile().PollInterval
	eng := c.ep.Engine()
	var tick func()
	tick = func() {
		if c.closed || len(c.waiters) == 0 {
			c.polling = false
			return
		}
		c.claimPartial()
		eng.Schedule(interval, tick)
	}
	eng.Schedule(interval, tick)
}

// take consumes n buffered bytes (caller guarantees availability).
func (c *Conn) take(n int) []byte {
	c.BytesConsumed += uint64(n)
	out := make([]byte, 0, n)
	for n > 0 {
		seg := &c.segments[0]
		take := len(seg.data) - seg.pos
		if take > n {
			take = n
		}
		out = append(out, seg.data[seg.pos:seg.pos+take]...)
		seg.pos += take
		n -= take
		c.buffered -= take
		if seg.pos == len(seg.data) {
			c.segments = c.segments[1:]
		}
	}
	return out
}

// serveWaiters resolves readers whose demands are now satisfiable.
func (c *Conn) serveWaiters() {
	for len(c.waiters) > 0 && c.buffered >= c.waiters[0].n {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		w.f.Complete(c.ep.Engine(), c.take(w.n))
	}
}

// claimPartial hands the active segment to software early when the head
// buffer already holds bytes a blocked reader needs — the §III-C
// stream-semantics use of RVMA_Win_inc_epoch.
func (c *Conn) claimPartial() {
	if c.claiming {
		return // one claim at a time; its completion re-evaluates
	}
	head := c.recvWin.Head()
	if head == nil || head.Fill == 0 {
		return // nothing has arrived; keep polling
	}
	if len(c.waiters) == 0 || c.buffered+head.Fill < c.waiters[0].n {
		return // even the partial bytes wouldn't satisfy the reader
	}
	c.EarlyClaims++
	c.claiming = true
	if _, err := c.recvWin.IncEpoch(); err != nil && !errors.Is(err, rvma.ErrNoBuffer) {
		panic(err)
	}
}

// Close shuts the receive window; further operations fail and in-flight
// peer writes are NACKed by the NIC.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.recvWin.Close()
	for _, w := range c.waiters {
		if !w.f.Done() {
			w.f.Complete(c.ep.Engine(), nil)
		}
	}
	c.waiters = nil
}
