package rvma

import (
	"fmt"
	"strings"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// completionRecord is one completion-pointer write as its window's
// completion handler observes it.
type completionRecord struct {
	vaddr VAddr
	epoch int64
	count int64
	at    sim.Time
}

// TestSharedBusCompletionOrder drives the three kinds of completion that
// queue behind one receive bus: threshold completions on the window that
// holds the only hardware counter, spilled-counter completions (which
// first pay HostCounterPenalty) on a second window, and IncEpoch doorbell
// completions on a third. Payload DMAs, doorbells and completion-pointer
// writes all interleave on the bus. Every completion's window, epoch,
// count and time, and their order, must equal the table, which was
// recorded before the completion paths moved onto per-endpoint stages: a
// stage that fired an entry early, late or out of turn changes a row.
func TestSharedBusCompletionOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHWCounters = 1
	cfg.HistoryDepth = 2
	fcfg := fabric.DefaultConfig()
	eng, src, dst := pair(t, cfg, fcfg, 1)

	const (
		hw     = VAddr(1) // EPOCH_OPS, threshold 1, holds the HW counter
		spill  = VAddr(2) // EPOCH_OPS, threshold 2, spills
		stream = VAddr(3) // EPOCH_BYTES, completed by IncEpoch
		depth  = 3
	)
	var got []completionRecord
	for _, w := range []struct {
		vaddr     VAddr
		threshold int64
		etype     EpochType
		size      int
	}{
		{hw, 1, EpochOps, 2 * fcfg.MTU},
		{spill, 2, EpochOps, 2 * fcfg.MTU},
		{stream, 1 << 20, EpochBytes, 8192},
	} {
		win, err := dst.InitWindow(w.vaddr, w.threshold, w.etype)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < depth; i++ {
			if _, err := win.PostBuffer(w.size); err != nil {
				t.Fatal(err)
			}
		}
		size := w.size
		win.SetCompletionHandler(func(b *Buffer) {
			got = append(got, completionRecord{win.VAddr(), b.Epoch, b.Count, eng.Now()})
			if err := win.Release(b); err != nil {
				t.Fatal(err)
			}
			if _, err := win.PostBuffer(size); err != nil {
				t.Fatal(err)
			}
		})
	}
	streamWin := dst.lut[stream]
	for i := 0; i < 16; i++ {
		at := sim.Time(i) * 150 * sim.Nanosecond
		size := fcfg.MTU
		if i%3 == 0 {
			size = 2 * fcfg.MTU
		}
		eng.Schedule(at, func() {
			src.PutN(1, hw, 0, size)
			src.PutN(1, spill, 0, fcfg.MTU)
			src.PutN(1, stream, i*512, 512)
		})
		if i%3 == 1 {
			eng.Schedule(at+1500*sim.Nanosecond, func() {
				if _, err := streamWin.IncEpoch(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	eng.Run()

	want := []completionRecord{
		// window, epoch, count, completion time (ps)
		{1, 0, 1, 1489320},
		{1, 1, 1, 1873320},
		{3, 0, 512, 2042280},
		{1, 2, 1, 2257320},
		{2, 0, 2, 2260360},
		{3, 1, 512, 2426280},
		{1, 3, 1, 2810280},
		{3, 2, 512, 2850960},
		{1, 4, 1, 3194280},
		{2, 1, 2, 3197320},
		{3, 3, 512, 3363240},
		{1, 5, 1, 3578280},
		{3, 4, 1024, 3767720},
		{2, 2, 2, 3965320},
		{1, 6, 1, 4131240},
		{1, 7, 1, 4515240},
		{1, 8, 1, 4899240},
		{2, 3, 2, 4902280},
		{1, 9, 1, 5452200},
		{1, 10, 1, 5836200},
		{2, 4, 2, 5839240},
		{1, 11, 1, 6220200},
		{2, 5, 2, 6607240},
		{1, 12, 1, 6773160},
		{1, 13, 1, 7157160},
		{1, 14, 1, 7541160},
		{2, 6, 2, 7544200},
		{1, 15, 1, 8094120},
		{2, 7, 2, 8481160},
	}
	var b strings.Builder
	for _, r := range got {
		fmt.Fprintf(&b, "\t\t{%d, %d, %d, %d},\n", r.vaddr, r.epoch, r.count, r.at)
	}
	if len(got) != len(want) {
		t.Fatalf("%d completions, want %d; got:\n%s", len(got), len(want), b.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion %d = %+v, want %+v; got:\n%s", i, got[i], want[i], b.String())
		}
	}
	if dst.Stats.CounterSpills == 0 || dst.Stats.EarlyCompletions == 0 {
		t.Fatalf("spills %d, early completions %d: the run must exercise both paths",
			dst.Stats.CounterSpills, dst.Stats.EarlyCompletions)
	}
}

// DropPools between runs releases an idle endpoint's pipeline whole, and
// the next run builds it again.
func TestDropPoolsBetweenRuns(t *testing.T) {
	eng, src, dst := defaultPair(t)
	win, _ := dst.InitWindow(9, 1, EpochOps)
	done := 0
	win.SetCompletionHandler(func(b *Buffer) {
		done++
		if err := win.Release(b); err != nil {
			t.Fatal(err)
		}
		if _, err := win.PostBuffer(64); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := win.PostBuffer(64); err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		eng.Schedule(0, func() { src.PutN(1, 9, 0, 64) })
		eng.Run()
		if done != run {
			t.Fatalf("run %d: %d completions, want %d", run, done, run)
		}
		src.DropPools()
		dst.DropPools()
		if src.pipe != nil || dst.pipe != nil {
			t.Fatalf("run %d: DropPools kept an idle pipeline", run)
		}
	}
}

// placeThree places three endpoints on one engine with InitEndpoints,
// node 2's NIC with the profile prof and bus bus, and returns them with
// the panic InitEndpoints raised, if any.
func placeThree(t *testing.T, prof nic.Profile, bus pcie.Config) (eps []*Endpoint, msg string) {
	t.Helper()
	eng := sim.NewEngine(1)
	net, err := fabric.New(eng, topology.NewSingleSwitch(3), fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nics := make([]*nic.NIC, 3)
	eps = make([]*Endpoint, 3)
	for node := range nics {
		p, b := nic.DefaultProfile(), pcie.Gen4x16()
		if node == 2 {
			p, b = prof, bus
		}
		nics[node] = nic.New(eng, net, node, b, p)
		eps[node] = new(Endpoint)
	}
	defer func() { msg = fmt.Sprint(recover()) }()
	InitEndpoints(eps, nics, DefaultConfig())
	return eps, msg
}

// Endpoints placed on one engine share one record of stages and slabs,
// and placing one that disagrees with the others on a delay a shared
// stage waits out panics at construction, naming the field: the host post
// overhead, or the counter penalty, which defaults to a bus round trip.
func TestInitEndpointsSharesStagesAndRejectsMismatchedDelays(t *testing.T) {
	eps, msg := placeThree(t, nic.DefaultProfile(), pcie.Gen4x16())
	if msg != "<nil>" {
		t.Fatalf("placing endpoints with one profile panicked: %s", msg)
	}
	if eps[0].sh != eps[1].sh || eps[1].sh != eps[2].sh {
		t.Fatal("endpoints on one engine do not share their stages")
	}
	slowPost, slowBus := nic.DefaultProfile(), pcie.Gen4x16()
	slowPost.HostPostOverhead++
	slowBus.Latency++
	for _, c := range []struct {
		field string
		prof  nic.Profile
		bus   pcie.Config
	}{
		{"HostPostOverhead", slowPost, pcie.Gen4x16()},
		{"HostCounterPenalty", nic.DefaultProfile(), slowBus},
	} {
		if _, msg := placeThree(t, c.prof, c.bus); !strings.Contains(msg, "node 2") || !strings.Contains(msg, c.field) {
			t.Errorf("node 2 with a %s 1 ps off: panic %q, want one naming node 2 and the field", c.field, msg)
		}
	}
}
