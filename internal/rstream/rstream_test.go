package rstream

import (
	"bytes"
	"errors"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/memory"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/rvma"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// streamPair wires two endpoints over a static-routed single switch.
func streamPair(t *testing.T, cfg Config) (*sim.Engine, *Conn, *Conn) {
	t.Helper()
	eng := sim.NewEngine(1)
	fcfg := fabric.DefaultConfig()
	fcfg.Routing = fabric.RouteStatic
	net, err := fabric.New(eng, topology.NewSingleSwitch(2), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := nic.DefaultProfile()
	a := rvma.NewEndpoint(nic.New(eng, net, 0, pcie.Gen4x16(), prof), rvma.DefaultConfig())
	b := rvma.NewEndpoint(nic.New(eng, net, 1, pcie.Gen4x16(), prof), rvma.DefaultConfig())
	ca, cb, err := Pair(a, b, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ca, cb
}

// pattern fabricates a deterministic byte stream.
func pattern(n, seed int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + seed)
	}
	return out
}

// reader reads a connection in chunks of at most chunk bytes until it
// holds n, as a step record: step runs it up to its next wait.
type reader struct {
	c        *Conn
	n, chunk int
	got      []byte
	pending  *sim.Future // the Read in flight
	err      error
}

func (r *reader) step() {
	for {
		if f := r.pending; f != nil {
			r.pending = nil
			r.got = append(r.got, f.Value().([]byte)...)
		}
		if len(r.got) == r.n {
			return
		}
		f, err := r.c.Read(min(r.chunk, r.n-len(r.got)))
		if err != nil {
			r.err = err
			return
		}
		r.pending = f
		if !f.Done() {
			f.OnComplete(r.step)
			return
		}
	}
}

// readAll starts a reader of n bytes in chunks at time 0.
func readAll(eng *sim.Engine, c *Conn, n, chunk int) *reader {
	r := &reader{c: c, n: n, chunk: chunk}
	eng.Schedule(0, r.step)
	return r
}

// write writes p at time 0.
func write(t *testing.T, eng *sim.Engine, c *Conn, p []byte) {
	eng.Schedule(0, func() {
		if _, err := c.Write(p); err != nil {
			t.Error(err)
		}
	})
}

func TestWholeSegmentTransfer(t *testing.T) {
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 1024})
	msg := pattern(1024, 1)
	write(t, eng, ca, msg)
	r := readAll(eng, cb, 1024, 1024)
	eng.Run()
	if r.err != nil || !bytes.Equal(r.got, msg) {
		t.Fatal("stream corrupted")
	}
	if cb.EarlyClaims != 0 {
		t.Fatalf("full segment should complete by threshold, not IncEpoch (claims=%d)", cb.EarlyClaims)
	}
}

func TestPartialSegmentClaimedByReader(t *testing.T) {
	// The §III-C stream case: writer sends fewer bytes than the segment
	// threshold; the blocked reader must claim the partial segment with
	// IncEpoch rather than hanging.
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 4096})
	msg := pattern(100, 2)
	write(t, eng, ca, msg)
	r := readAll(eng, cb, 100, 100)
	eng.Run()
	if r.err != nil || !bytes.Equal(r.got, msg) {
		t.Fatal("partial-segment read corrupted")
	}
	if cb.EarlyClaims == 0 {
		t.Fatal("reader should have claimed the partial segment via IncEpoch")
	}
}

func TestStreamHasNoMessageBoundaries(t *testing.T) {
	// Several writes, consumed by reads of unrelated sizes.
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 512})
	full := pattern(3000, 3)
	// The writer writes 700 bytes every 2 µs.
	off := 0
	var writeNext func()
	writeNext = func() {
		if off < len(full) {
			end := min(off+700, len(full))
			ca.Write(full[off:end])
			off = end
			eng.Schedule(2*sim.Microsecond, writeNext)
		}
	}
	eng.Schedule(0, writeNext)
	r := readAll(eng, cb, len(full), 450)
	eng.Run()
	if r.err != nil || !bytes.Equal(r.got, full) {
		t.Fatal("reassembled stream differs from written stream")
	}
	if cb.BytesConsumed != uint64(len(full)) {
		t.Fatalf("consumed %d bytes, want %d", cb.BytesConsumed, len(full))
	}
}

func TestFullDuplex(t *testing.T) {
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 256})
	ping := pattern(256, 4)
	pong := pattern(256, 5)
	write(t, eng, ca, ping)
	a := readAll(eng, ca, 256, 256)
	okB := false
	eng.Schedule(0, func() {
		f, _ := cb.Read(256)
		f.OnComplete(func() {
			okB = bytes.Equal(f.Value().([]byte), ping)
			cb.Write(pong)
		})
	})
	eng.Run()
	if okA := bytes.Equal(a.got, pong); !okA || !okB {
		t.Fatalf("full duplex exchange failed: a=%v b=%v", okA, okB)
	}
}

func TestLargeTransferSpansSegments(t *testing.T) {
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 1024, Depth: 8})
	big := pattern(64*1024, 6)
	write(t, eng, ca, big)
	r := readAll(eng, cb, len(big), len(big))
	eng.Run()
	if !bytes.Equal(r.got, big) {
		t.Fatal("64 KiB stream corrupted across segments")
	}
	// 64 segments went through the window, but the receiver's memory holds
	// only the 8 posted segments plus the Rewind history's retained ones.
	kept := 8 + cb.ep.Config().HistoryDepth
	if live, max := cb.ep.Memory().LiveBytes(), kept*(1024+memory.CacheLineSize); live > max {
		t.Fatalf("receiver holds %d B after 64 segments, want at most %d B", live, max)
	}
}

func TestBufferedAndImmediateRead(t *testing.T) {
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 128})
	msg := pattern(256, 7)
	write(t, eng, ca, msg)
	eng.Run()
	if cb.Buffered() != 256 {
		t.Fatalf("buffered = %d, want 256 (two completed segments)", cb.Buffered())
	}
	// A read of already-buffered bytes resolves synchronously.
	f, err := cb.Read(256)
	if err != nil || !f.Done() {
		t.Fatalf("buffered read should resolve immediately: %v", err)
	}
	if !bytes.Equal(f.Value().([]byte), msg) {
		t.Fatal("buffered read corrupted")
	}
}

func TestPairRefusesAdaptiveRouting(t *testing.T) {
	eng := sim.NewEngine(1)
	fcfg := fabric.DefaultConfig()
	fcfg.Routing = fabric.RouteAdaptive
	net, _ := fabric.New(eng, topology.NewSingleSwitch(2), fcfg)
	prof := nic.DefaultProfile()
	a := rvma.NewEndpoint(nic.New(eng, net, 0, pcie.Gen4x16(), prof), rvma.DefaultConfig())
	b := rvma.NewEndpoint(nic.New(eng, net, 1, pcie.Gen4x16(), prof), rvma.DefaultConfig())
	if _, _, err := Pair(a, b, 1, Config{}); !errors.Is(err, ErrUnordered) {
		t.Fatalf("adaptive-routed pair: %v, want ErrUnordered", err)
	}
}

func TestCloseSemantics(t *testing.T) {
	eng, ca, cb := streamPair(t, Config{SegmentBytes: 128})
	cb.Close()
	cb.Close() // idempotent
	if _, err := cb.Read(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := cb.Write(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	// The unclosed end keeps its own API available.
	if _, err := ca.Write(nil); err != nil {
		t.Fatalf("peer connection should remain usable: %v", err)
	}
	// Writes toward the closed end are NACKed by the receiver NIC.
	nacked := false
	eng.Schedule(0, func() {
		op := ca.ep.Put(cb.ep.Node(), ca.sendMbox, 0, make([]byte, 16))
		op.Nack.OnComplete(func() { nacked = true })
	})
	eng.Run()
	if !nacked {
		t.Fatal("write to closed stream should NACK")
	}
}

func TestZeroLengthWrite(t *testing.T) {
	_, ca, _ := streamPair(t, Config{})
	f, err := ca.Write(nil)
	if err != nil || !f.Done() {
		t.Fatalf("zero write: %v", err)
	}
	if _, err := ca.Read(0); err == nil {
		t.Fatal("zero read should error")
	}
}
