package rvma

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"rvma/internal/fabric"
	"rvma/internal/memory"
	"rvma/internal/metrics"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// pair wires two RVMA endpoints through a one-switch fabric.
func pair(t testing.TB, cfg Config, fcfg fabric.Config, seed uint64) (*sim.Engine, *Endpoint, *Endpoint) {
	t.Helper()
	eng := sim.NewEngine(seed)
	net, err := fabric.New(eng, topology.NewSingleSwitch(2), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := nic.DefaultProfile()
	a := NewEndpoint(nic.New(eng, net, 0, pcie.Gen4x16(), prof), cfg)
	b := NewEndpoint(nic.New(eng, net, 1, pcie.Gen4x16(), prof), cfg)
	return eng, a, b
}

func defaultPair(t *testing.T) (*sim.Engine, *Endpoint, *Endpoint) {
	return pair(t, DefaultConfig(), fabric.DefaultConfig(), 1)
}

func TestPutCompletesAtByteThreshold(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, err := dst.InitWindow(0x11FF0011, 1024, EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := win.PostBuffer(1024)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var head, length uint64
	var doneAt sim.Time
	eng.Schedule(0, func() {
		src.Put(1, 0x11FF0011, 0, payload)
		win.NextCompletion().OnComplete(func() {
			h, l := buf.Cell.Get()
			head, length = uint64(h), uint64(l)
			doneAt = eng.Now()
		})
	})
	eng.Run()
	if doneAt == 0 {
		t.Fatal("completion never fired")
	}
	if head != uint64(buf.Region.Base) || length != 1024 {
		t.Fatalf("cell = (%#x, %d), want (%#x, 1024)", head, length, buf.Region.Base)
	}
	got := dst.Memory().Read(buf.Region.Base, 1024)
	if !bytes.Equal(got, payload) {
		t.Fatal("placed data does not match payload")
	}
	if win.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", win.Epoch())
	}
	if dst.Stats.Completions != 1 || dst.Stats.PutsPlaced != 1 {
		t.Fatalf("stats: completions=%d placed=%d", dst.Stats.Completions, dst.Stats.PutsPlaced)
	}
}

func TestNoHandshakeRequired(t *testing.T) {
	// The defining RVMA property: an initiator that knows only (node,
	// mailbox) can put immediately — nothing is exchanged beforehand.
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(42, 64, EpochBytes)
	win.PostBuffer(64)
	completed := false
	eng.Schedule(0, func() {
		src.Put(1, 42, 0, make([]byte, 64))
		win.NextCompletion().OnComplete(func() { completed = true })
	})
	eng.Run()
	if !completed {
		t.Fatal("put without prior handshake did not complete")
	}
}

func TestOpsThreshold(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(7, 4, EpochOps) // complete after 4 operations
	win.PostBuffer(4096)
	var count int64
	eng.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			src.Put(1, 7, i*64, make([]byte, 64))
		}
		win.NextCompletion().OnComplete(func() {
			count = win.history[len(win.history)-1].Count
		})
	})
	eng.Run()
	if win.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1 after 4 ops", win.Epoch())
	}
	if count != 4 {
		t.Fatalf("op count = %d, want 4", count)
	}
}

func TestMultiPacketPutCountsOneOp(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(9, 2, EpochOps)
	win.PostBuffer(16 * 1024)
	eng.Schedule(0, func() {
		// Two 5000-byte puts: each spans 3 packets but must count as ONE op.
		src.Put(1, 9, 0, make([]byte, 5000))
		src.Put(1, 9, 8000, make([]byte, 5000))
	})
	eng.Run()
	if win.Epoch() != 1 {
		t.Fatalf("epoch = %d, want exactly 1 (two ops, threshold 2)", win.Epoch())
	}
}

func TestTwoThresholdMessagesYieldTwoBuffers(t *testing.T) {
	// Paper §III-B: "sending two messages to the same RVMA address where
	// each message triggers the completion threshold will result in the
	// application receiving two separate buffers out of the bucket".
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(5, 256, EpochBytes)
	b1, _ := win.PostBuffer(256)
	b2, _ := win.PostBuffer(256)
	m1 := bytes.Repeat([]byte{0xAA}, 256)
	m2 := bytes.Repeat([]byte{0xBB}, 256)
	eng.Schedule(0, func() {
		src.Put(1, 5, 0, m1)
		src.Put(1, 5, 0, m2)
	})
	eng.Run()
	if win.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", win.Epoch())
	}
	if !bytes.Equal(dst.Memory().Read(b1.Region.Base, 256), m1) {
		t.Fatal("first buffer does not hold first message")
	}
	if !bytes.Equal(dst.Memory().Read(b2.Region.Base, 256), m2) {
		t.Fatal("second buffer does not hold second message")
	}
	if h1, _ := b1.Cell.Get(); h1 != b1.Region.Base {
		t.Fatal("first completion cell should point at first buffer")
	}
	if h2, _ := b2.Cell.Get(); h2 != b2.Region.Base {
		t.Fatal("second completion cell should point at second buffer")
	}
}

func TestDistinctMailboxesDoNotAssemble(t *testing.T) {
	// Paper §III-B: puts to different mailbox addresses land in different
	// buckets — they never assemble a contiguous payload.
	eng, src, dst := defaultPair(t)
	w1, _ := dst.InitWindow(0x11FF0011, 32, EpochBytes)
	w2, _ := dst.InitWindow(0x11FF0031, 32, EpochBytes)
	b1, _ := w1.PostBuffer(64)
	b2, _ := w2.PostBuffer(64)
	eng.Schedule(0, func() {
		src.Put(1, 0x11FF0011, 0, bytes.Repeat([]byte{1}, 32))
		src.Put(1, 0x11FF0031, 0, bytes.Repeat([]byte{2}, 32))
	})
	eng.Run()
	if w1.Epoch() != 1 || w2.Epoch() != 1 {
		t.Fatalf("epochs = %d,%d, want 1,1", w1.Epoch(), w2.Epoch())
	}
	if dst.Memory().Read(b1.Region.Base, 1)[0] != 1 || dst.Memory().Read(b2.Region.Base, 1)[0] != 2 {
		t.Fatal("messages crossed mailboxes")
	}
}

func TestOffsetsAssembleContiguousMessage(t *testing.T) {
	// Paper §III-B: a contiguous 64-byte payload is built by sending two
	// 32-byte puts to the SAME mailbox with offsets 0 and 32.
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(3, 64, EpochBytes)
	buf, _ := win.PostBuffer(64)
	lo := bytes.Repeat([]byte{0xCC}, 32)
	hi := bytes.Repeat([]byte{0xDD}, 32)
	eng.Schedule(0, func() {
		src.Put(1, 3, 0, lo)
		src.Put(1, 3, 32, hi)
	})
	eng.Run()
	got := dst.Memory().Read(buf.Region.Base, 64)
	if !bytes.Equal(got[:32], lo) || !bytes.Equal(got[32:], hi) {
		t.Fatal("offset puts did not assemble contiguously")
	}
	if win.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", win.Epoch())
	}
}

func TestOutOfOrderDeliveryStillCorrect(t *testing.T) {
	// The §IV-D property: under adaptive routing with jittered paths,
	// packets arrive out of order, yet offset placement + byte counting
	// yield a byte-identical buffer and exactly one completion.
	for seed := uint64(1); seed <= 10; seed++ {
		fcfg := fabric.DefaultConfig()
		fcfg.Routing = fabric.RouteAdaptive
		fcfg.AdaptiveJitter = 0.8
		eng, src, dst := pair(t, DefaultConfig(), fcfg, seed)
		const total = 64 * 1024
		win, _ := dst.InitWindow(11, total, EpochBytes)
		buf, _ := win.PostBuffer(total)
		payload := make([]byte, total)
		for i := range payload {
			payload[i] = byte(i*13 + i>>8)
		}
		completions := 0
		eng.Schedule(0, func() {
			src.Put(1, 11, 0, payload)
			win.NextCompletion().OnComplete(func() { completions++ })
		})
		eng.Run()
		if completions != 1 {
			t.Fatalf("seed %d: %d completions, want 1", seed, completions)
		}
		if !bytes.Equal(dst.Memory().Read(buf.Region.Base, total), payload) {
			t.Fatalf("seed %d: buffer corrupted by out-of-order placement", seed)
		}
	}
}

func TestNackOnUnknownMailbox(t *testing.T) {
	eng, src, _ := defaultPair(t)
	var nackErr error
	eng.Schedule(0, func() {
		op := src.Put(1, 0xDEAD, 0, make([]byte, 64))
		op.Nack.OnComplete(func() { nackErr = op.Nack.Value().(error) })
	})
	eng.Run()
	if !errors.Is(nackErr, ErrNoWindow) {
		t.Fatalf("nack error = %v, want ErrNoWindow", nackErr)
	}
}

// TestNackOnClosedWindow: every packet of a put to a closed mailbox draws
// a NACK, and the NACKs name the put, so the first resolves its Nack
// future and closes its span as nacked and the rest resolve nothing.
func TestNackOnClosedWindow(t *testing.T) {
	mtu := fabric.DefaultConfig().MTU
	for _, c := range []struct {
		name    string
		size    int
		packets uint64
	}{
		{"1 packet", 64, 1},
		{"4 packets", 4 * mtu, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, src, dst := defaultPair(t)
			reg := metrics.NewRegistry()
			reg.EnableSpans()
			ends := spanEnds{}
			reg.SetSpanObserver(ends)
			src.SetMetrics(reg)
			win, _ := dst.InitWindow(8, int64(c.size), EpochBytes)
			win.PostBuffer(c.size)
			win.Close()
			nacks := 0
			eng.Schedule(0, func() {
				op := src.Put(1, 8, 0, make([]byte, c.size))
				op.Nack.OnComplete(func() { nacks++ })
			})
			eng.Run()
			if nacks != 1 {
				t.Fatalf("Nack resolved %d times, want 1", nacks)
			}
			if dst.Stats.Nacks != c.packets || dst.Stats.Drops != c.packets {
				t.Fatalf("stats: nacks=%d drops=%d, want %d each", dst.Stats.Nacks, dst.Stats.Drops, c.packets)
			}
			if ends["nacked"] != 1 || len(ends) != 1 {
				t.Fatalf("span endings %v, want one nacked", ends)
			}
		})
	}
}

// The registry's protocol counters are the endpoint's Stats, read at
// snapshot time: a put to a window with no posted buffer shows as one
// drop, one NACK and one posted-buffer exhaustion per packet.
func TestProtocolCountersReadStats(t *testing.T) {
	eng, src, dst := defaultPair(t)
	reg := metrics.NewRegistry()
	dst.SetMetrics(reg)
	if _, err := dst.InitWindow(8, 64, EpochBytes); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(0, func() { src.Put(1, 8, 0, make([]byte, 64)) })
	eng.Run()
	if dst.Stats.NoBuffer != 1 || dst.Stats.Drops != 1 || dst.Stats.Nacks != 1 {
		t.Fatalf("stats: %+v, want one no-buffer drop and its NACK", dst.Stats)
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"rvma.drops", dst.Stats.Drops},
		{"rvma.nacks", dst.Stats.Nacks},
		{"rvma.posted_buffer_exhaustion", dst.Stats.NoBuffer},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

// spanEnds counts span endings by status.
type spanEnds map[string]int

func (spanEnds) SpanStage(metrics.SpanKey, string, string, int, int, sim.Time, sim.Time, sim.Time) {}

func (e spanEnds) SpanEnd(_ metrics.SpanKey, _, status string, _, _ int, _, _ sim.Time) { e[status]++ }

func TestNackDisabledDropsSilently(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NACKEnabled = false
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	nacked := false
	eng.Schedule(0, func() {
		op := src.Put(1, 0xDEAD, 0, make([]byte, 64))
		op.Nack.OnComplete(func() { nacked = true })
	})
	eng.Run()
	if nacked {
		t.Fatal("NACK sent despite NACKEnabled=false")
	}
	if dst.Stats.Drops != 1 || dst.Stats.Nacks != 0 {
		t.Fatalf("stats: drops=%d nacks=%d", dst.Stats.Drops, dst.Stats.Nacks)
	}
}

func TestCatchAllMailbox(t *testing.T) {
	eng, src, dst := defaultPair(t)
	catch, _ := dst.InitWindow(0xCA7C4A11, 1<<20, EpochBytes)
	catch.PostBuffer(4096)
	dst.SetCatchAll(catch)
	eng.Schedule(0, func() {
		src.Put(1, 0xDEAD, 0, bytes.Repeat([]byte{0xEE}, 128))
	})
	eng.Run()
	if dst.Stats.CatchAllHits == 0 {
		t.Fatal("unknown-mailbox put should land in catch-all")
	}
	if dst.Stats.Drops != 0 {
		t.Fatal("catch-all hit should not count as drop")
	}
	if got := dst.Memory().Read(catch.Head().Region.Base, 1)[0]; got != 0xEE {
		t.Fatal("catch-all buffer did not receive the payload")
	}
}

func TestBufferOverrunNacks(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(2, 1024, EpochBytes)
	win.PostBuffer(128)
	nacked := false
	eng.Schedule(0, func() {
		op := src.Put(1, 2, 100, make([]byte, 64)) // 100+64 > 128
		op.Nack.OnComplete(func() { nacked = true })
	})
	eng.Run()
	if !nacked {
		t.Fatal("overrun put must NACK")
	}
}

func TestPutWithNoBufferPosted(t *testing.T) {
	eng, src, dst := defaultPair(t)
	dst.InitWindow(4, 64, EpochBytes) // window exists, queue empty
	nacked := false
	eng.Schedule(0, func() {
		op := src.Put(1, 4, 0, make([]byte, 64))
		op.Nack.OnComplete(func() { nacked = true })
	})
	eng.Run()
	if !nacked {
		t.Fatal("put with no posted buffer must NACK")
	}
}

func TestIncEpochEarlyCompletion(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(6, 4096, EpochBytes)
	buf, _ := win.PostBuffer(4096)
	var head uint64
	var length int
	eng.Schedule(0, func() {
		op := src.Put(1, 6, 0, make([]byte, 1000)) // below threshold
		op.Local.OnComplete(func() {
			// Give the last packet time to land, then hand the partial
			// buffer to software.
			eng.Schedule(10*sim.Microsecond, func() {
				f, err := win.IncEpoch()
				if err != nil {
					t.Errorf("IncEpoch: %v", err)
					return
				}
				f.OnComplete(func() {
					h, l := buf.Cell.Get()
					head, length = uint64(h), l
				})
			})
		})
	})
	eng.Run()
	if head != uint64(buf.Region.Base) {
		t.Fatalf("cell head = %#x, want %#x", head, buf.Region.Base)
	}
	if length != 1000 {
		t.Fatalf("partial completion length = %d, want 1000", length)
	}
	if win.Epoch() != 1 || dst.Stats.EarlyCompletions != 1 {
		t.Fatalf("epoch=%d early=%d", win.Epoch(), dst.Stats.EarlyCompletions)
	}
}

func TestIncEpochErrors(t *testing.T) {
	_, _, dst := defaultPair(t)
	win, _ := dst.InitWindow(1, 64, EpochBytes)
	if _, err := win.IncEpoch(); !errors.Is(err, ErrNoBuffer) {
		t.Fatalf("IncEpoch with empty queue: %v, want ErrNoBuffer", err)
	}
	win.PostBuffer(64)
	win.Close()
	if _, err := win.IncEpoch(); !errors.Is(err, ErrClosed) {
		t.Fatalf("IncEpoch on closed window: %v, want ErrClosed", err)
	}
}

func TestGetBufPtrs(t *testing.T) {
	_, _, dst := defaultPair(t)
	win, _ := dst.InitWindow(1, 64, EpochBytes)
	var bufs []*Buffer
	for i := 0; i < 3; i++ {
		b, _ := win.PostBuffer(64)
		bufs = append(bufs, b)
	}
	out := make([]memory.Addr, 5)
	n := win.GetBufPtrs(out)
	if n != 3 {
		t.Fatalf("GetBufPtrs = %d, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if out[i] != bufs[i].NotificationAddr() {
			t.Fatalf("ptr %d = %#x, want %#x", i, out[i], bufs[i].NotificationAddr())
		}
	}
	small := make([]memory.Addr, 2)
	if n := win.GetBufPtrs(small); n != 2 {
		t.Fatalf("truncated GetBufPtrs = %d, want 2", n)
	}
}

func TestWindowLifecycleErrors(t *testing.T) {
	_, _, dst := defaultPair(t)
	if _, err := dst.InitWindow(1, 0, EpochBytes); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("zero threshold: %v", err)
	}
	win, err := dst.InitWindow(1, 64, EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.InitWindow(1, 64, EpochBytes); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("duplicate mailbox: %v", err)
	}
	if _, err := win.PostBuffer(0); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("zero-size buffer: %v", err)
	}
	win.Close()
	win.Close() // idempotent
	if _, err := win.PostBuffer(64); !errors.Is(err, ErrClosed) {
		t.Fatalf("post after close: %v", err)
	}
	if dst.LUTSize() != 0 {
		t.Fatalf("LUT size after close = %d, want 0", dst.LUTSize())
	}
}

func TestRewindHistory(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(12, 64, EpochBytes)
	var regions []memory.Addr
	for i := 0; i < 3; i++ {
		b, _ := win.PostBuffer(64)
		regions = append(regions, b.Region.Base)
	}
	eng.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			src.Put(1, 12, 0, bytes.Repeat([]byte{byte(i + 1)}, 64))
		}
	})
	eng.Run()
	if win.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", win.Epoch())
	}
	// Rewind(1) = most recent epoch (value 3), Rewind(3) = oldest retained.
	for k := 1; k <= 3; k++ {
		b, err := win.Rewind(k)
		if err != nil {
			t.Fatalf("Rewind(%d): %v", k, err)
		}
		wantVal := byte(4 - k)
		if got := dst.Memory().Read(b.Region.Base, 1)[0]; got != wantVal {
			t.Fatalf("Rewind(%d) buffer holds %d, want %d", k, got, wantVal)
		}
		if b.Region.Base != regions[3-k] {
			t.Fatalf("Rewind(%d) returned wrong buffer", k)
		}
	}
	if _, err := win.Rewind(4); !errors.Is(err, ErrNoHistory) {
		t.Fatalf("Rewind past history: %v", err)
	}
	if _, err := win.Rewind(0); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("Rewind(0): %v", err)
	}
}

func TestHistoryBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryDepth = 2
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	win, _ := dst.InitWindow(13, 16, EpochBytes)
	for i := 0; i < 5; i++ {
		win.PostBuffer(16)
	}
	eng.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			src.Put(1, 13, 0, make([]byte, 16))
		}
	})
	eng.Run()
	if win.Epoch() != 5 {
		t.Fatalf("epoch = %d, want 5", win.Epoch())
	}
	if win.HistoryDepth() != 2 {
		t.Fatalf("history depth = %d, want 2 (bounded)", win.HistoryDepth())
	}
}

func TestGetRoundTrip(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(14, 1<<20, EpochBytes)
	buf, _ := win.PostBuffer(8192)
	content := make([]byte, 8192)
	for i := range content {
		content[i] = byte(i * 3)
	}
	dst.Memory().Write(buf.Region.Base, content)
	var got []byte
	eng.Schedule(0, func() {
		op := src.Get(1, 14, 1000, 5000)
		op.Done.OnComplete(func() { got = op.Done.Value().([]byte) })
	})
	eng.Run()
	if got == nil {
		t.Fatal("get never completed")
	}
	if !bytes.Equal(got, content[1000:6000]) {
		t.Fatal("get returned wrong bytes")
	}
	if dst.Stats.GetsServed != 1 {
		t.Fatalf("gets served = %d", dst.Stats.GetsServed)
	}
}

func TestGetNackOnMissingWindow(t *testing.T) {
	eng, src, _ := defaultPair(t)
	nacked := false
	eng.Schedule(0, func() {
		op := src.Get(1, 0xDEAD, 0, 64)
		op.Nack.OnComplete(func() { nacked = true })
	})
	eng.Run()
	if !nacked {
		t.Fatal("get from missing window must NACK")
	}
}

func TestManagedModeAppendsInArrivalOrder(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindowMode(15, 96, EpochBytes, Managed)
	buf, _ := win.PostBuffer(96)
	eng.Schedule(0, func() {
		// Managed (stream) mode ignores offsets; bytes land at the fill
		// pointer in arrival order, like a socket.
		src.Put(1, 15, 999999, bytes.Repeat([]byte{1}, 32)) // offset ignored
		src.Put(1, 15, 0, bytes.Repeat([]byte{2}, 32))
		src.Put(1, 15, 0, bytes.Repeat([]byte{3}, 32))
	})
	eng.Run()
	if win.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", win.Epoch())
	}
	got := dst.Memory().Read(buf.Region.Base, 96)
	for i := 0; i < 96; i++ {
		want := byte(i/32 + 1)
		if got[i] != want {
			t.Fatalf("managed stream byte %d = %d, want %d", i, got[i], want)
		}
	}
	if _, l := buf.Cell.Get(); l != 96 {
		t.Fatalf("managed completion length = %d, want 96", l)
	}
}

func TestCounterSpillPenalty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHWCounters = 1
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	w1, _ := dst.InitWindow(20, 64, EpochBytes)
	w2, _ := dst.InitWindow(21, 64, EpochBytes)
	w1.PostBuffer(64) // claims the only HW counter
	w2.PostBuffer(64) // spills
	eng.Schedule(0, func() {
		src.Put(1, 20, 0, make([]byte, 64))
		src.Put(1, 21, 0, make([]byte, 64))
	})
	eng.Run()
	if w1.Epoch() != 1 || w2.Epoch() != 1 {
		t.Fatalf("epochs = %d,%d; spilled window must still complete", w1.Epoch(), w2.Epoch())
	}
	if dst.Stats.CounterSpills == 0 {
		t.Fatal("expected counter spills with MaxHWCounters=1")
	}
}

func TestCounterFreedOnCompletionReusable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHWCounters = 1
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	w1, _ := dst.InitWindow(20, 64, EpochBytes)
	w1.PostBuffer(64)
	eng.Schedule(0, func() { src.Put(1, 20, 0, make([]byte, 64)) })
	eng.Run()
	if w1.Epoch() != 1 {
		t.Fatal("first window never completed")
	}
	// The counter freed when w1's queue drained; a new window can claim it.
	w2, _ := dst.InitWindow(21, 64, EpochBytes)
	w2.PostBuffer(64)
	spillsBefore := dst.Stats.CounterSpills
	eng.Schedule(0, func() { src.Put(1, 21, 0, make([]byte, 64)) })
	eng.Run()
	if w2.Epoch() != 1 {
		t.Fatal("second window never completed")
	}
	if dst.Stats.CounterSpills != spillsBefore {
		t.Fatal("second window should reuse the freed HW counter, not spill")
	}
}

func TestWatchBufferMWaitVsPoll(t *testing.T) {
	run := func(mode NotifyMode) sim.Time {
		cfg := DefaultConfig()
		cfg.Notification = mode
		eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
		win, _ := dst.InitWindow(30, 256, EpochBytes)
		buf, _ := win.PostBuffer(256)
		var at sim.Time
		eng.Schedule(0, func() {
			n := dst.WatchBuffer(buf)
			n.Done.OnComplete(func() { at = eng.Now() })
			src.Put(1, 30, 0, make([]byte, 256))
		})
		eng.Run()
		if at == 0 {
			t.Fatalf("%v notification never fired", mode)
		}
		return at
	}
	mwait := run(NotifyMWait)
	poll := run(NotifyPoll)
	if mwait > poll {
		t.Fatalf("MWait (%v) should observe completion no later than polling (%v)", mwait, poll)
	}
}

func TestWatchAlreadyCompletedBuffer(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(31, 64, EpochBytes)
	buf, _ := win.PostBuffer(64)
	var observed [2]uint64
	eng.Schedule(0, func() { src.Put(1, 31, 0, make([]byte, 64)) })
	eng.Schedule(sim.Millisecond, func() {
		n := dst.WatchBuffer(buf)
		n.Done.OnComplete(func() { observed = n.Done.Value().([2]uint64) })
	})
	eng.Run()
	if observed[0] != uint64(buf.Region.Base) || observed[1] != 64 {
		t.Fatalf("late watch observed (%#x,%d)", observed[0], observed[1])
	}
}

func TestNotificationCancel(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(32, 64, EpochBytes)
	buf, _ := win.PostBuffer(64)
	fired := false
	eng.Schedule(0, func() {
		n := dst.WatchBuffer(buf)
		n.Done.OnComplete(func() { fired = true })
		n.Cancel()
		src.Put(1, 32, 0, make([]byte, 64))
	})
	eng.Run()
	if fired {
		t.Fatal("canceled notification fired")
	}
	if dst.Memory().WatcherCount() != 0 {
		t.Fatal("watcher leaked after cancel")
	}
}

func TestPutNTimingOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CarryData = false
	eng, src, dst := pair(t, cfg, fabric.DefaultConfig(), 1)
	win, _ := dst.InitWindow(33, 4096, EpochBytes)
	win.PostBuffer(4096)
	done := false
	eng.Schedule(0, func() {
		src.PutN(1, 33, 0, 4096)
		win.NextCompletion().OnComplete(func() { done = true })
	})
	eng.Run()
	if !done {
		t.Fatal("timing-only put did not complete the epoch")
	}
}

func TestWhenPlaced(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(40, 1<<40, EpochBytes) // never auto-completes
	win.PostBuffer(1 << 16)
	var at sim.Time
	eng.Schedule(0, func() {
		f := win.WhenPlaced(3, 100*sim.Nanosecond)
		f.OnComplete(func() { at = eng.Now() })
		src.PutN(1, 40, 0, 256)
		src.PutN(1, 40, 1024, 256)
	})
	// The third message arrives much later; WhenPlaced must wait for it.
	eng.Schedule(50*sim.Microsecond, func() { src.PutN(1, 40, 2048, 256) })
	eng.Run()
	if at < 50*sim.Microsecond {
		t.Fatalf("WhenPlaced resolved at %v, before the third message", at)
	}
	if win.MessagesPlaced != 3 {
		t.Fatalf("placed = %d", win.MessagesPlaced)
	}
	// Already-satisfied WhenPlaced resolves promptly.
	done := false
	eng.Schedule(0, func() {
		win.WhenPlaced(3, 100*sim.Nanosecond).OnComplete(func() { done = true })
	})
	eng.Run()
	if !done {
		t.Fatal("satisfied WhenPlaced never resolved")
	}
}

func TestGetMultiPacketOverAdaptive(t *testing.T) {
	fcfg := fabric.DefaultConfig()
	fcfg.Routing = fabric.RouteAdaptive
	fcfg.AdaptiveJitter = 0.5
	eng, src, dst := pair(t, DefaultConfig(), fcfg, 5)
	win, _ := dst.InitWindow(41, 1<<40, EpochBytes)
	buf, _ := win.PostBuffer(32 * 1024)
	content := make([]byte, 32*1024)
	for i := range content {
		content[i] = byte(i * 17)
	}
	dst.Memory().Write(buf.Region.Base, content)
	var got []byte
	eng.Schedule(0, func() {
		op := src.Get(1, 41, 0, 32*1024)
		op.Done.OnComplete(func() { got = op.Done.Value().([]byte) })
	})
	eng.Run()
	if !bytes.Equal(got, content) {
		t.Fatal("multi-packet get corrupted under adaptive routing")
	}
}

func TestManagedModeSplitsAcrossSegments(t *testing.T) {
	// A put larger than the remaining space of the head segment must be
	// split across segment buffers (stream hardware semantics), not
	// rejected.
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindowMode(42, 64, EpochBytes, Managed)
	b1, _ := win.PostBuffer(64)
	b2, _ := win.PostBuffer(64)
	payload := make([]byte, 96)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	eng.Schedule(0, func() { src.Put(1, 42, 0, payload) })
	eng.Run()
	if win.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1 (first segment filled)", win.Epoch())
	}
	if dst.Stats.Drops != 0 {
		t.Fatalf("drops = %d; straddling put must not drop", dst.Stats.Drops)
	}
	got1 := dst.Memory().Read(b1.Region.Base, 64)
	got2 := dst.Memory().Read(b2.Region.Base, 32)
	if !bytes.Equal(got1, payload[:64]) || !bytes.Equal(got2, payload[64:]) {
		t.Fatal("split placement corrupted the stream")
	}
}

// TestPutNAllocationCeiling pins what one PutN costs on the heap, from
// issue to the target's completion and the buffer repost: the reposted
// buffer, which the handler does not release, so nothing is there to
// reuse: the Buffer, its region, its completion cell's region and the
// page the cell's write materializes. The PutOp (which holds the one
// command all its packets share) goes back to the endpoint's free list
// once its local completion and its packets are spent, the post, the NIC
// send's local completion and the completion-pointer write queue on the
// endpoint's stages, and the fabric recycles packets. A 4-packet put costs exactly
// what a 1-packet put does, and the reposted buffer reuses the window
// queue's backing array. A new allocation on the put path fails it.
func TestPutNAllocationCeiling(t *testing.T) {
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	const ceiling = 4
	perPackets := map[int]float64{}
	for _, packets := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.CarryData = false
		fcfg := fabric.DefaultConfig()
		eng, src, dst := pair(t, cfg, fcfg, 1)
		const box = VAddr(0)
		size := packets * fcfg.MTU
		win, err := dst.InitWindow(box, 1, EpochOps)
		if err != nil {
			t.Fatal(err)
		}
		post := func() {
			if _, err := win.PostBuffer(size); err != nil {
				t.Fatal(err)
			}
		}
		post()
		queue := &win.queue[:1][0]
		done := 0
		win.SetCompletionHandler(func(*Buffer) {
			done++
			post()
		})
		put := func() { src.PutN(1, box, 0, size) }
		allocs := testing.AllocsPerRun(200, func() {
			eng.Schedule(0, put)
			eng.Run()
		})
		if done != 201 {
			t.Fatalf("%d packets: %d of 201 puts completed", packets, done)
		}
		if allocs > ceiling {
			t.Errorf("%d packets: %v allocs per PutN, want at most %d", packets, allocs, ceiling)
		}
		if &win.queue[:1][0] != queue {
			t.Errorf("%d packets: reposting a buffer moved the window queue to a new backing array", packets)
		}
		perPackets[packets] = allocs
	}
	if perPackets[4] != perPackets[1] {
		t.Errorf("a 4-packet PutN costs %v allocs, a 1-packet one %v: the per-message cost grew per packet",
			perPackets[4], perPackets[1])
	}
}

// Every NACK and get reply allocates a command, and PutOp, a reliable
// put's attempt and GetOp embed one: a field added to it must not move it
// past the 96 B size class.
func TestCommandFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(command{}); n > 96 {
		t.Fatalf("command is %d B, past the 96 B size class", n)
	}
}

// InitWindows opens what InitWindow and PostBuffer would, one window and
// one buffer at a time: the same windows in the lookup table, the same
// buffers at the same addresses with the same completion cells, the same
// hardware counters claimed, and the same simulated memory live.
func TestInitWindowsMatchesOneByOne(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHWCounters = 3 // fewer than the windows, so the claim order shows
	_, one, _ := pair(t, cfg, fabric.DefaultConfig(), 1)
	_, bulk, _ := pair(t, cfg, fabric.DefaultConfig(), 1)
	vaddrs := []VAddr{7, 3, 11, 5, 9}
	const depth, size = 3, 4096
	var want []*Window
	for _, va := range vaddrs {
		w, err := one.InitWindow(va, 1, EpochOps)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < depth; i++ {
			if _, err := w.PostBuffer(size); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, w)
	}
	got, err := bulk.InitWindows(vaddrs, 1, EpochOps, depth, size)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vaddrs) || bulk.LUTSize() != one.LUTSize() || bulk.activeCtrs != one.activeCtrs {
		t.Fatalf("%d windows, LUT %d, %d counters; one by one: LUT %d, %d counters",
			len(got), bulk.LUTSize(), bulk.activeCtrs, one.LUTSize(), one.activeCtrs)
	}
	for i, w := range want {
		g := &got[i]
		if bulk.lut[vaddrs[i]] != g || g.VAddr() != w.VAddr() || g.Threshold() != w.Threshold() ||
			g.EpochType() != w.EpochType() || g.hwCounter != w.hwCounter || len(g.queue) != len(w.queue) {
			t.Fatalf("window %#x differs from the one opened alone", vaddrs[i])
		}
		for j, b := range w.queue {
			gb := g.queue[j]
			if gb.Region.Base != b.Region.Base || gb.Region.Size() != b.Region.Size() ||
				gb.NotificationAddr() != b.NotificationAddr() || gb.Epoch != b.Epoch || !gb.owned || gb.win != g {
				t.Fatalf("window %#x buffer %d differs from the one posted alone", vaddrs[i], j)
			}
		}
	}
	if bulk.Memory().LiveBytes() != one.Memory().LiveBytes() {
		t.Fatalf("%d B live, one by one %d B", bulk.Memory().LiveBytes(), one.Memory().LiveBytes())
	}
}

// InitWindows opens nothing when it fails: not for a bad argument, a
// vaddr that already has a window, or one listed twice.
func TestInitWindowsFailsWhole(t *testing.T) {
	_, ep, _ := defaultPair(t)
	if _, err := ep.InitWindow(4, 1, EpochOps); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		vaddrs      []VAddr
		threshold   int64
		depth, size int
	}{
		{"zero threshold", []VAddr{1, 2}, 0, 1, 64},
		{"negative depth", []VAddr{1, 2}, 1, -1, 64},
		{"empty buffers", []VAddr{1, 2}, 1, 1, 0},
		{"open mailbox", []VAddr{1, 2, 4}, 1, 1, 64},
		{"repeated mailbox", []VAddr{1, 2, 1}, 1, 1, 64},
	} {
		if _, err := ep.InitWindows(tc.vaddrs, tc.threshold, EpochOps, tc.depth, tc.size); !errors.Is(err, ErrBadArgument) {
			t.Errorf("%s: err %v, want ErrBadArgument", tc.name, err)
		}
		if n := ep.LUTSize(); n != 1 {
			t.Errorf("%s: %d windows in the LUT after the failed call, want the 1 opened before", tc.name, n)
		}
	}
	if ep.Memory().LiveBytes() != 0 {
		t.Errorf("%d B live after failed calls, want 0", ep.Memory().LiveBytes())
	}
}

// Opening mailboxes in bulk costs a few heap objects, however many
// mailboxes and buffers: the windows, their queues and their buffer slots
// are three arrays, the region index grows once, and the LUT's map is
// made at its size, in a few more tables as it grows past a thousand
// entries. Before the bulk path a mailbox of four buffers cost eighteen.
func TestInitWindowsAllocations(t *testing.T) {
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	for _, tc := range []struct{ mailboxes, want int }{{4, 6}, {64, 8}, {1024, 11}} {
		vaddrs := make([]VAddr, tc.mailboxes)
		for i := range vaddrs {
			vaddrs[i] = VAddr(i)
		}
		build := testing.AllocsPerRun(5, func() { defaultPair(t) })
		total := testing.AllocsPerRun(5, func() {
			_, ep, _ := defaultPair(t)
			if _, err := ep.InitWindows(vaddrs, 1, EpochOps, 4, 4096); err != nil {
				t.Fatal(err)
			}
		})
		if got := total - build; got > float64(tc.want) {
			t.Errorf("%d mailboxes: %v allocations, want at most %d", tc.mailboxes, got, tc.want)
		}
	}
}
