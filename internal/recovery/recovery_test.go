package recovery

import (
	"cmp"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/rvma"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// scriptedOp is a Sender whose first drops attempts are never
// acknowledged (simulated loss) and whose later attempts ack after rtt.
// sends records the issue time of every attempt; acks and abandons count
// what the operation ended with, and when.
type scriptedOp struct {
	eng   *sim.Engine
	drops int
	rtt   sim.Time
	sends []sim.Time

	acks, abandons       int
	ackedAt, abandonedAt sim.Time
}

func lossySender(eng *sim.Engine, drops int, rtt sim.Time) *scriptedOp {
	return &scriptedOp{eng: eng, drops: drops, rtt: rtt}
}

func (o *scriptedOp) Attempt(try int) Attempt {
	o.sends = append(o.sends, o.eng.Now())
	at := Attempt{Acked: sim.NewFuture()}
	at.Acked.OnComplete(func() { o.acks++; o.ackedAt = o.eng.Now() })
	if try >= o.drops {
		o.eng.Schedule(o.rtt, func() {
			if !at.Acked.Done() {
				at.Acked.Complete(o.eng, nil)
			}
		})
	}
	return at
}

func (o *scriptedOp) Abandon() { o.abandons++; o.abandonedAt = o.eng.Now() }

// acked reports whether the operation ended acked, once, and never
// abandoned.
func (o *scriptedOp) acked() bool { return o.acks == 1 && o.abandons == 0 }

// exhausted reports whether the operation was abandoned exactly once and
// never acked.
func (o *scriptedOp) exhausted() bool { return o.abandons == 1 && o.acks == 0 }

func TestAckOnFirstAttempt(t *testing.T) {
	eng := sim.NewEngine(1)
	m := new(Manager)
	m.Init(eng, DefaultConfig(), 1)
	o := lossySender(eng, 0, 5*sim.Microsecond)
	eng.Schedule(0, func() { m.Run(o) })
	eng.Run()
	if !o.acked() {
		t.Fatalf("op not cleanly acked: acks=%d abandons=%d", o.acks, o.abandons)
	}
	if len(o.sends) != 1 {
		t.Fatalf("attempts = %d, want 1", len(o.sends))
	}
	s := m.Stats
	if s.OpsStarted != 1 || s.OpsCompleted != 1 || s.Retransmits != 0 || s.Recovered != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTimeoutRetransmitRecovers(t *testing.T) {
	eng := sim.NewEngine(1)
	m := new(Manager)
	m.Init(eng, DefaultConfig(), 1)
	o := lossySender(eng, 2, 5*sim.Microsecond)
	eng.Schedule(0, func() { m.Run(o) })
	eng.Run()
	if !o.acked() {
		t.Fatalf("op not cleanly acked: acks=%d abandons=%d", o.acks, o.abandons)
	}
	sends := o.sends
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

// nackingOp is a Sender whose attempts before the nacks-th are NACKed
// rtt after issue and whose later ones ack after ackRTT (rtt if zero).
type nackingOp struct {
	scriptedOp
	nacks  int
	ackRTT sim.Time
}

func (o *nackingOp) Attempt(try int) Attempt {
	o.sends = append(o.sends, o.eng.Now())
	at := Attempt{Acked: sim.NewFuture(), Nack: sim.NewFuture()}
	at.Acked.OnComplete(func() { o.acks++; o.ackedAt = o.eng.Now() })
	if try < o.nacks {
		o.eng.Schedule(o.rtt, func() { at.Nack.Complete(o.eng, rvma.ErrNoBuffer) })
	} else {
		o.eng.Schedule(cmp.Or(o.ackRTT, o.rtt), func() { at.Acked.Complete(o.eng, nil) })
	}
	return at
}

func TestNackTriggersFastRetry(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	m := new(Manager)
	m.Init(eng, cfg, 1)
	o := &nackingOp{scriptedOp: scriptedOp{eng: eng, rtt: 5 * sim.Microsecond}, nacks: 1}
	eng.Schedule(0, func() { m.Run(o) })
	eng.Run()
	if !o.acked() {
		t.Fatalf("op failed: acks=%d abandons=%d", o.acks, o.abandons)
	}
	s := m.Stats
	if s.NackRetries != 1 || s.Timeouts != 0 || s.Retransmits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The NACK retry must not wait for the ack timeout: it fires at the
	// NACK plus one backoff, well inside the timeout with this policy.
	if gap := o.sends[1] - o.sends[0]; gap >= cfg.Timeout {
		t.Fatalf("nack retry waited %v, want < timeout %v", gap, cfg.Timeout)
	}
}

// A superseded attempt's timeout, and a NACK that completes a superseded
// attempt's future after its record went to the next operation, are both
// no-ops: the timeout entry names an attempt that is no longer current,
// and the reused record's current attempt is not the one NACKed.
func TestStaleTimeoutAndNackAfterReuseAreNoOps(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	m := new(Manager)
	m.Init(eng, cfg, 1)
	// first is NACKed on attempt 0 and retried after a backoff of 12.5 to
	// 37.5 us; attempt 1 is acked 90 us after it starts, inside its own
	// timeout but after attempt 0's, which finds attempt 1 current.
	first := &nackingOp{scriptedOp: scriptedOp{eng: eng, rtt: 5 * sim.Microsecond}, nacks: 1, ackRTT: 90 * sim.Microsecond}
	eng.Schedule(0, func() { m.Run(first) })
	eng.Run()
	if !first.acked() || len(first.sends) != 2 {
		t.Fatalf("first op: acks=%d abandons=%d attempts=%d", first.acks, first.abandons, len(first.sends))
	}
	if first.ackedAt <= cfg.Timeout {
		t.Fatalf("first op acked at %v, before attempt 0's timeout", first.ackedAt)
	}
	if s := m.Stats; s.Timeouts != 0 || s.NackRetries != 1 || s.Retransmits != 1 {
		t.Fatalf("stale timeout counted: stats = %+v", s)
	}
	// Every timeout has fired, so the record is free, and the next
	// operation takes it.
	rec := m.free
	if rec == nil || rec.next != nil {
		t.Fatal("the finished operation's record is not the one free record")
	}
	// second is acked 50 us after it starts; at 20 us a late NACK and a
	// late ack complete a superseded attempt's futures, which still hold
	// the record's callbacks.
	second := &nackingOp{scriptedOp: scriptedOp{eng: eng, rtt: 50 * sim.Microsecond}}
	stale := Attempt{Acked: sim.NewFuture(), Nack: sim.NewFuture()}
	start := eng.Now()
	eng.Schedule(0, func() {
		m.Run(second)
		if m.free != nil {
			t.Error("the second operation did not take the free record")
		}
		stale.Nack.OnComplete(rec.onNack)
		stale.Acked.OnComplete(rec.onAck)
	})
	eng.Schedule(20*sim.Microsecond, func() {
		stale.Nack.Complete(eng, rvma.ErrNoBuffer)
		stale.Acked.Complete(eng, nil)
	})
	eng.Run()
	if !second.acked() || len(second.sends) != 1 {
		t.Fatalf("second op: acks=%d abandons=%d attempts=%d", second.acks, second.abandons, len(second.sends))
	}
	if want := start + 50*sim.Microsecond; second.ackedAt != want {
		t.Fatalf("second op acked at %v, want %v", second.ackedAt, want)
	}
	s := m.Stats
	if s.OpsCompleted != 2 || s.NackRetries != 1 || s.Retransmits != 1 || s.Timeouts != 0 || s.Recovered != 1 {
		t.Fatalf("a stale NACK or ack acted on the reused record: stats = %+v", s)
	}
	if m.free != rec {
		t.Fatal("the record did not return to the free list")
	}
}

func TestExhaustionFailsOp(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.MaxRetries = 3
	m := new(Manager)
	m.Init(eng, cfg, 1)
	o := lossySender(eng, 99, 0)
	eng.Schedule(0, func() { m.Run(o) })
	eng.Run()
	if !o.exhausted() {
		t.Fatalf("acks=%d abandons=%d, want exactly one abandon", o.acks, o.abandons)
	}
	if len(o.sends) != cfg.MaxRetries+1 {
		t.Fatalf("attempts = %d, want %d", len(o.sends), cfg.MaxRetries+1)
	}
	s := m.Stats
	if s.Exhausted != 1 || s.OpsCompleted != 0 || s.Retransmits != uint64(cfg.MaxRetries) {
		t.Fatalf("stats = %+v", s)
	}
	if s.Retransmits > uint64(cfg.MaxRetries)*s.OpsStarted {
		t.Fatalf("budget invariant violated: %+v", s)
	}
	// The whole retry schedule fits inside the advertised horizon.
	if end := o.abandonedAt; end > m.RetryHorizon() {
		t.Fatalf("exhausted at %v, past retry horizon %v", end, m.RetryHorizon())
	}
}

// When the last attempt is NACKed, its timeout still fires later: the
// operation is abandoned once, at the NACK, and the timeout is a no-op.
func TestExhaustionAbandonsOnce(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.MaxRetries = 2
	m := new(Manager)
	m.Init(eng, cfg, 1)
	o := &nackingOp{scriptedOp: scriptedOp{eng: eng, rtt: 5 * sim.Microsecond}, nacks: 99}
	eng.Schedule(0, func() { m.Run(o) })
	end := eng.Run()
	if !o.exhausted() {
		t.Fatalf("acks=%d abandons=%d, want exactly one abandon", o.acks, o.abandons)
	}
	if want := o.sends[len(o.sends)-1] + o.rtt; o.abandonedAt != want {
		t.Fatalf("abandoned at %v, want at the last NACK, %v", o.abandonedAt, want)
	}
	if end < o.abandonedAt+cfg.Timeout-o.rtt {
		t.Fatalf("run ended at %v, before the last attempt's timeout", end)
	}
	s := m.Stats
	if s.Exhausted != 1 || s.NackRetries != 3 || s.Timeouts != 0 || s.Retransmits != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if m.free == nil {
		t.Fatal("the exhausted operation's record did not return to the free list")
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
	m := new(Manager)
	m.Init(eng, cfg, 1)
	o := lossySender(eng, 99, 0)
	eng.Schedule(0, func() { m.Run(o) })
	eng.Run()
	// Gap k = timeout + min(max, base<<k): 20, 30, 50, 50 us.
	want := []sim.Time{20, 30, 50, 50}
	for i := range want {
		want[i] *= sim.Microsecond
	}
	sends := o.sends
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
		m := new(Manager)
		m.Init(eng, DefaultConfig(), 1)
		ops := make([]*scriptedOp, 8)
		eng.Schedule(0, func() {
			for i := range ops {
				ops[i] = lossySender(eng, i%4, 3*sim.Microsecond)
				m.Run(ops[i])
			}
		})
		eng.Run()
		var last sim.Time
		for _, o := range ops {
			last = max(last, o.ackedAt)
		}
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

	m := new(Manager)
	m.Init(eng, DefaultConfig(), 1)
	wins, err := dst.InitWindows([]rvma.VAddr{0x6E55}, 4096, rvma.EpochBytes, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	win, guard := &wins[0], &m.GuardWindows(wins)[0]
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

	m := new(Manager)
	m.Init(eng, DefaultConfig(), 1)
	wins, err := dst.InitWindows([]rvma.VAddr{0x6E55}, 4096, rvma.EpochBytes, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	win, guard := &wins[0], &m.GuardWindows(wins)[0]
	eng.Schedule(0, func() {
		guard.Expect()
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
