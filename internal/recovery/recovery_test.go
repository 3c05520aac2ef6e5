package recovery

import (
	"cmp"
	"slices"
	"strings"
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
// what the operation ended with, and when, and releases how often the
// manager handed its record back.
type scriptedOp struct {
	Op
	eng   *sim.Engine
	drops int
	rtt   sim.Time
	sends []sim.Time

	acks, abandons, releases int
	ackedAt, abandonedAt     sim.Time
	ended                    bool // acked or abandoned: no later attempt reaches the manager
}

func lossySender(eng *sim.Engine, drops int, rtt sim.Time) *scriptedOp {
	return &scriptedOp{eng: eng, drops: drops, rtt: rtt}
}

func (o *scriptedOp) Attempt(try int) {
	o.sends = append(o.sends, o.eng.Now())
	if try >= o.drops {
		o.eng.Schedule(o.rtt, func() { o.ack(try) })
	}
}

// ack resolves attempt try, as a transport resolves an ack: only while it
// is the operation's current attempt and the operation has not ended.
func (o *scriptedOp) ack(try int) {
	if o.ended || try != len(o.sends)-1 {
		return
	}
	o.ended = true
	o.acks++
	o.ackedAt = o.eng.Now()
	o.Acked()
}

func (o *scriptedOp) Abandon() {
	o.ended = true
	o.abandons++
	o.abandonedAt = o.eng.Now()
}

func (o *scriptedOp) Release() { o.releases++ }

// acked reports whether the operation ended acked, once, and never
// abandoned.
func (o *scriptedOp) acked() bool { return o.acks == 1 && o.abandons == 0 }

// exhausted reports whether the operation was abandoned exactly once and
// never acked.
func (o *scriptedOp) exhausted() bool { return o.abandons == 1 && o.acks == 0 }

// run starts o on m.
func (o *scriptedOp) run(m *Manager) { m.Run(&o.Op, o) }

func TestAckOnFirstAttempt(t *testing.T) {
	eng := sim.NewEngine(1)
	m := new(Manager)
	m.Init(new(Shard), eng, DefaultConfig(), 1)
	o := lossySender(eng, 0, 5*sim.Microsecond)
	eng.Schedule(0, func() { o.run(m) })
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
	m.Init(new(Shard), eng, DefaultConfig(), 1)
	o := lossySender(eng, 2, 5*sim.Microsecond)
	eng.Schedule(0, func() { o.run(m) })
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

func (o *nackingOp) Attempt(try int) {
	o.sends = append(o.sends, o.eng.Now())
	if try < o.nacks {
		o.eng.Schedule(o.rtt, func() { o.nack(try) })
	} else {
		o.eng.Schedule(cmp.Or(o.ackRTT, o.rtt), func() { o.ack(try) })
	}
}

// nack resolves attempt try's NACK while it is current.
func (o *nackingOp) nack(try int) {
	if o.ended || try != len(o.sends)-1 {
		return
	}
	o.Nacked()
}

func (o *nackingOp) run(m *Manager) { m.Run(&o.Op, o) }

func TestNackTriggersFastRetry(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	m := new(Manager)
	m.Init(new(Shard), eng, cfg, 1)
	o := &nackingOp{scriptedOp: scriptedOp{eng: eng, rtt: 5 * sim.Microsecond}, nacks: 1}
	eng.Schedule(0, func() { o.run(m) })
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

// A superseded attempt's deadline is a no-op, the record goes back to
// its sender only once its last deadline has fired, and the next
// operation on the reused record is not touched by a NACK or a duplicate
// ack that reaches it after it finished. A NACK or ack of an earlier
// operation never reaches a reused record's live one: the endpoint drops
// it, since it names an attempt of that earlier operation (the rvma and
// rdma TestReliableRecordReuseIgnoresStale* tests).
func TestStaleTimeoutAndNackAfterReuseAreNoOps(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	m := new(Manager)
	m.Init(new(Shard), eng, cfg, 1)
	// op is NACKed on attempt 0 and retried after a backoff of 12.5 to
	// 37.5 us; attempt 1 is acked 90 us after it starts, inside its own
	// timeout but after attempt 0's, which finds attempt 1 current.
	op := &nackingOp{scriptedOp: scriptedOp{eng: eng, rtt: 5 * sim.Microsecond}, nacks: 1, ackRTT: 90 * sim.Microsecond}
	eng.Schedule(0, func() { op.run(m) })
	var releasedAtAck int
	eng.Schedule(cfg.Timeout+sim.Microsecond, func() { releasedAtAck = op.releases })
	eng.Run()
	if !op.acked() || len(op.sends) != 2 {
		t.Fatalf("first op: acks=%d abandons=%d attempts=%d", op.acks, op.abandons, len(op.sends))
	}
	if op.ackedAt <= cfg.Timeout {
		t.Fatalf("first op acked at %v, before attempt 0's timeout", op.ackedAt)
	}
	if s := m.Stats; s.Timeouts != 0 || s.NackRetries != 1 || s.Retransmits != 1 {
		t.Fatalf("stale timeout counted: stats = %+v", s)
	}
	// The record came back once, after attempt 1's deadline, not at
	// attempt 0's stale one.
	if releasedAtAck != 0 || op.releases != 1 {
		t.Fatalf("record released %d times by attempt 0's deadline and %d in all, want 0 and 1", releasedAtAck, op.releases)
	}
	// The sender reuses the record for a second operation, acked 50 us
	// after it starts; at 60 us a late NACK and a duplicate ack reach the
	// finished operation.
	op.sends, op.ended, op.acks, op.nacks, op.rtt, op.ackRTT = nil, false, 0, 0, 50*sim.Microsecond, 0
	start := eng.Now()
	eng.Schedule(0, func() { op.run(m) })
	eng.Schedule(60*sim.Microsecond, func() {
		op.Nacked()
		op.Acked()
	})
	eng.Run()
	if !op.acked() || len(op.sends) != 1 {
		t.Fatalf("second op: acks=%d abandons=%d attempts=%d", op.acks, op.abandons, len(op.sends))
	}
	if want := start + 50*sim.Microsecond; op.ackedAt != want {
		t.Fatalf("second op acked at %v, want %v", op.ackedAt, want)
	}
	s := m.Stats
	if s.OpsCompleted != 2 || s.NackRetries != 1 || s.Retransmits != 1 || s.Timeouts != 0 || s.Recovered != 1 {
		t.Fatalf("a late NACK or ack acted on the reused record: stats = %+v", s)
	}
	if op.releases != 2 {
		t.Fatalf("record released %d times, want once per operation", op.releases)
	}
}

func TestExhaustionFailsOp(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.MaxRetries = 3
	m := new(Manager)
	m.Init(new(Shard), eng, cfg, 1)
	o := lossySender(eng, 99, 0)
	eng.Schedule(0, func() { o.run(m) })
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
	m.Init(new(Shard), eng, cfg, 1)
	o := &nackingOp{scriptedOp: scriptedOp{eng: eng, rtt: 5 * sim.Microsecond}, nacks: 99}
	eng.Schedule(0, func() { o.run(m) })
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
	if o.releases != 1 {
		t.Fatalf("the exhausted operation's record was released %d times, want 1", o.releases)
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
	m.Init(new(Shard), eng, cfg, 1)
	o := lossySender(eng, 99, 0)
	eng.Schedule(0, func() { o.run(m) })
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
		m.Init(new(Shard), eng, DefaultConfig(), 1)
		ops := make([]*scriptedOp, 8)
		eng.Schedule(0, func() {
			for i := range ops {
				ops[i] = lossySender(eng, i%4, 3*sim.Microsecond)
				ops[i].run(m)
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

// Managers on one shard share its deadline and retry stages, but each
// keeps its own Stats and backoff stream: two managers whose lossy
// operations interleave on one shard send every attempt at the time it
// has with each manager alone on its own engine. A manager whose timeout
// differs from the shard's cannot join it.
func TestManagersShareAShard(t *testing.T) {
	cfg := DefaultConfig()
	start := func(eng *sim.Engine, m *Manager) []*scriptedOp {
		ops := make([]*scriptedOp, 6)
		eng.Schedule(0, func() {
			for i := range ops {
				ops[i] = lossySender(eng, i%4, 3*sim.Microsecond)
				ops[i].run(m)
			}
		})
		return ops
	}
	var alone [2][]*scriptedOp
	var aloneStats [2]Stats
	for i := range alone {
		eng := sim.NewEngine(1)
		m := new(Manager)
		m.Init(new(Shard), eng, cfg, uint64(i+1))
		alone[i] = start(eng, m)
		eng.Run()
		aloneStats[i] = m.Stats
	}
	eng := sim.NewEngine(1)
	var sh Shard
	var ms [2]Manager
	var shared [2][]*scriptedOp
	for i := range ms {
		ms[i].Init(&sh, eng, cfg, uint64(i+1))
		shared[i] = start(eng, &ms[i])
	}
	eng.Run()
	for i := range ms {
		if ms[i].Stats != aloneStats[i] {
			t.Fatalf("manager %d: stats %+v on a shared shard, %+v alone", i, ms[i].Stats, aloneStats[i])
		}
		for j, o := range shared[i] {
			if !slices.Equal(o.sends, alone[i][j].sends) || !o.acked() {
				t.Fatalf("manager %d op %d: attempts at %v on a shared shard, %v alone", i, j, o.sends, alone[i][j].sends)
			}
		}
	}
	if held := ms[0].HeldPools(); !slices.Equal(held, []string{"deadlines", "retries"}) {
		t.Fatalf("after a run the shard holds %v, want the arrays of the stages the run used until DropPools", held)
	}
	ms[1].DropPools()
	if held := ms[0].HeldPools(); len(held) != 0 {
		t.Fatalf("DropPools on one manager left the shared shard holding %v", held)
	}
	impatient := cfg
	impatient.Timeout /= 2
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Timeout") {
			t.Fatalf("a manager with another timeout joined the shard: recovered %q, want a panic naming Timeout", msg)
		}
	}()
	new(Manager).Init(&sh, eng, impatient, 3)
}

// Under simdebug a record is refused for a new operation while its
// operation runs or a deadline still names it: a record goes back to its
// sender only through Release.
func TestRunRefusesARecordInUse(t *testing.T) {
	if !sim.DebugEnabled {
		t.Skip("the reuse check is a simdebug invariant")
	}
	eng := sim.NewEngine(1)
	m := new(Manager)
	m.Init(new(Shard), eng, DefaultConfig(), 1)
	o := lossySender(eng, 0, 5*sim.Microsecond)
	eng.Schedule(0, func() { o.run(m) })
	eng.Schedule(10*sim.Microsecond, func() {
		// Acked at 5 us, but its deadline has not fired.
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "reused while") {
				t.Errorf("a record reused before its release: recovered %q, want a reuse panic", msg)
			}
		}()
		o.run(m)
	})
	eng.Run()
	if o.releases != 1 {
		t.Fatalf("record released %d times, want once", o.releases)
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
	m.Init(new(Shard), eng, DefaultConfig(), 1)
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
	m.Init(new(Shard), eng, DefaultConfig(), 1)
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
