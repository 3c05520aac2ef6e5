package recovery

import (
	"errors"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/rvma"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// lossySender returns a send function whose first `drops` attempts are
// never acknowledged (simulated loss) and whose later attempts ack after
// rtt. sends records the issue time of every attempt.
func lossySender(eng *sim.Engine, drops int, rtt sim.Time, sends *[]sim.Time) func(int) Attempt {
	return func(try int) Attempt {
		*sends = append(*sends, eng.Now())
		at := Attempt{Acked: sim.NewFuture()}
		if try >= drops {
			eng.Schedule(rtt, func() {
				if !at.Acked.Done() {
					at.Acked.Complete(eng, nil)
				}
			})
		}
		return at
	}
}

func TestAckOnFirstAttempt(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewManager(eng, DefaultConfig(), eng.RNG())
	var sends []sim.Time
	var op *Op
	eng.Schedule(0, func() {
		op = m.Run(lossySender(eng, 0, 5*sim.Microsecond, &sends), nil)
	})
	eng.Run()
	if !op.Done.Done() || op.Done.Value() != nil {
		t.Fatalf("op not cleanly done: done=%v value=%v", op.Done.Done(), op.Done.Value())
	}
	if len(sends) != 1 {
		t.Fatalf("attempts = %d, want 1", len(sends))
	}
	s := m.Stats
	if s.OpsStarted != 1 || s.OpsCompleted != 1 || s.Retransmits != 0 || s.Recovered != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTimeoutRetransmitRecovers(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewManager(eng, DefaultConfig(), eng.RNG())
	var sends []sim.Time
	var op *Op
	eng.Schedule(0, func() {
		op = m.Run(lossySender(eng, 2, 5*sim.Microsecond, &sends), nil)
	})
	eng.Run()
	if !op.Done.Done() || op.Done.Value() != nil {
		t.Fatalf("op not cleanly done: done=%v value=%v", op.Done.Done(), op.Done.Value())
	}
	if len(sends) != 3 {
		t.Fatalf("attempts = %d, want 3 (two losses + success)", len(sends))
	}
	s := m.Stats
	if s.OpsCompleted != 1 || s.Retransmits != 2 || s.Timeouts != 2 || s.Recovered != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Each retransmit waits at least the full timeout after its attempt.
	for i := 1; i < len(sends); i++ {
		if gap := sends[i] - sends[i-1]; gap < m.Config().Timeout {
			t.Fatalf("attempt %d only %v after previous, want >= timeout %v", i, gap, m.Config().Timeout)
		}
	}
}

func TestNackTriggersFastRetry(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	m := NewManager(eng, cfg, eng.RNG())
	var sends []sim.Time
	rtt := 5 * sim.Microsecond
	send := func(try int) Attempt {
		sends = append(sends, eng.Now())
		at := Attempt{Acked: sim.NewFuture(), Nack: sim.NewFuture()}
		if try == 0 {
			eng.Schedule(rtt, func() { at.Nack.Complete(eng, rvma.ErrNoBuffer) })
		} else {
			eng.Schedule(rtt, func() { at.Acked.Complete(eng, nil) })
		}
		return at
	}
	var op *Op
	eng.Schedule(0, func() { op = m.Run(send, nil) })
	eng.Run()
	if op.Done.Value() != nil {
		t.Fatalf("op failed: %v", op.Done.Value())
	}
	s := m.Stats
	if s.NackRetries != 1 || s.Timeouts != 0 || s.Retransmits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The NACK retry must not wait for the ack timeout: it fires at the
	// NACK plus one backoff, well inside the timeout with this policy.
	if gap := sends[1] - sends[0]; gap >= cfg.Timeout {
		t.Fatalf("nack retry waited %v, want < timeout %v", gap, cfg.Timeout)
	}
}

func TestExhaustionFailsOp(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.MaxRetries = 3
	m := NewManager(eng, cfg, eng.RNG())
	var sends []sim.Time
	failed := false
	var op *Op
	eng.Schedule(0, func() {
		op = m.Run(lossySender(eng, 99, 0, &sends), func() { failed = true })
	})
	eng.Run()
	err, _ := op.Done.Value().(error)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("op value = %v, want ErrExhausted", op.Done.Value())
	}
	if !failed {
		t.Fatal("onFail not called")
	}
	if len(sends) != cfg.MaxRetries+1 {
		t.Fatalf("attempts = %d, want %d", len(sends), cfg.MaxRetries+1)
	}
	s := m.Stats
	if s.Exhausted != 1 || s.OpsCompleted != 0 || s.Retransmits != uint64(cfg.MaxRetries) {
		t.Fatalf("stats = %+v", s)
	}
	if s.Retransmits > uint64(cfg.MaxRetries)*s.OpsStarted {
		t.Fatalf("budget invariant violated: %+v", s)
	}
	// The whole retry schedule fits inside the advertised horizon.
	if end := op.Done.CompletedAt(); end > m.RetryHorizon() {
		t.Fatalf("exhausted at %v, past retry horizon %v", end, m.RetryHorizon())
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := Config{
		Timeout:     10 * sim.Microsecond,
		BackoffBase: 10 * sim.Microsecond,
		BackoffMax:  40 * sim.Microsecond,
		Jitter:      0, // deterministic gaps
		MaxRetries:  4,
	}
	m := NewManager(eng, cfg, eng.RNG())
	var sends []sim.Time
	eng.Schedule(0, func() { m.Run(lossySender(eng, 99, 0, &sends), nil) })
	eng.Run()
	// Gap k = timeout + min(max, base<<k): 20, 30, 50, 50 us.
	want := []sim.Time{20, 30, 50, 50}
	for i := range want {
		want[i] *= sim.Microsecond
	}
	if len(sends) != 5 {
		t.Fatalf("attempts = %d, want 5", len(sends))
	}
	for i, w := range want {
		if gap := sends[i+1] - sends[i]; gap != w {
			t.Fatalf("gap %d = %v, want %v", i, gap, w)
		}
	}
}

func TestManagerDeterministic(t *testing.T) {
	run := func() (sim.Time, Stats) {
		eng := sim.NewEngine(7)
		m := NewManager(eng, DefaultConfig(), eng.RNG())
		var last sim.Time
		eng.Schedule(0, func() {
			for i := 0; i < 8; i++ {
				var sends []sim.Time
				op := m.Run(lossySender(eng, i%4, 3*sim.Microsecond, &sends), nil)
				op.Done.OnComplete(func() { last = eng.Now() })
			}
		})
		eng.Run()
		return last, m.Stats
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%v, %+v) vs (%v, %+v)", t1, s1, t2, s2)
	}
}

// TestWindowGuardReclaimsHoledBuffer drives the receiver-side recovery
// path end to end on real endpoints: a put smaller than the window
// threshold leaves the head buffer permanently partial (the rest of the
// epoch was "lost"); the guard's deadline hands it to software via
// IncEpoch and retrieves it with Rewind.
func TestWindowGuardReclaimsHoledBuffer(t *testing.T) {
	eng := sim.NewEngine(1)
	net, err := fabric.New(eng, topology.NewSingleSwitch(2), fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof := nic.DefaultProfile()
	rcfg := rvma.DefaultConfig()
	rcfg.HistoryDepth = 2
	src := rvma.NewEndpoint(nic.New(eng, net, 0, pcie.Gen4x16(), prof), rcfg)
	dst := rvma.NewEndpoint(nic.New(eng, net, 1, pcie.Gen4x16(), prof), rcfg)

	m := NewManager(eng, DefaultConfig(), eng.RNG())
	win, err := dst.InitWindow(0x6E55, 4096, rvma.EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := win.PostBuffer(4096); err != nil {
		t.Fatal(err)
	}
	guard := m.GuardWindow(win)
	var salvaged *rvma.Buffer
	win.SetCompletionHandler(func(b *rvma.Buffer) { salvaged = b })
	eng.Schedule(0, func() {
		guard.Expect()
		src.PutN(1, 0x6E55, 0, 2048) // half the epoch; the rest never comes
	})
	eng.Run()

	if m.Stats.Reclaims != 1 {
		t.Fatalf("reclaims = %d, want 1", m.Stats.Reclaims)
	}
	if win.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1 after reclaim", win.Epoch())
	}
	if salvaged == nil || salvaged.HighWater != 2048 {
		t.Fatalf("salvaged buffer = %+v, want high water 2048", salvaged)
	}
	if dst.Stats.Rewinds != 1 || dst.Stats.EarlyCompletions != 1 {
		t.Fatalf("endpoint stats: rewinds=%d early=%d", dst.Stats.Rewinds, dst.Stats.EarlyCompletions)
	}
}

// TestWindowGuardLeavesHealthyWindowAlone arms a guard on a window whose
// epoch completes normally: the deadline must fire as a no-op.
func TestWindowGuardLeavesHealthyWindowAlone(t *testing.T) {
	eng := sim.NewEngine(1)
	net, err := fabric.New(eng, topology.NewSingleSwitch(2), fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof := nic.DefaultProfile()
	src := rvma.NewEndpoint(nic.New(eng, net, 0, pcie.Gen4x16(), prof), rvma.DefaultConfig())
	dst := rvma.NewEndpoint(nic.New(eng, net, 1, pcie.Gen4x16(), prof), rvma.DefaultConfig())

	m := NewManager(eng, DefaultConfig(), eng.RNG())
	win, err := dst.InitWindow(0x6E55, 4096, rvma.EpochBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := win.PostBuffer(4096); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(0, func() {
		m.GuardWindow(win).Expect()
		src.PutN(1, 0x6E55, 0, 4096)
	})
	eng.Run()
	if m.Stats.Reclaims != 0 {
		t.Fatalf("reclaims = %d, want 0", m.Stats.Reclaims)
	}
	if win.Epoch() != 1 || dst.Stats.EarlyCompletions != 0 {
		t.Fatalf("epoch=%d early=%d, want clean hardware completion", win.Epoch(), dst.Stats.EarlyCompletions)
	}
}
