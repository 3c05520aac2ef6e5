// Package recovery is the deterministic sender-side reliability layer:
// per-operation timeouts on simulated time, retransmission with
// exponential backoff and engine-RNG jitter, and a bounded retry budget.
// It is deliberately protocol-agnostic — an operation is any Sender, which
// tells the Op it embeds of its current attempt's ack and (optionally)
// NACK — so the RVMA transport (driven by the reliable put's placement
// ack and NACKs) and the RDMA transport (driven by its transport-ACK
// path) share one retry policy and the paper's comparison stays fair.
//
// Determinism rules (DESIGN.md §8): every timer is an engine event, every
// jitter draw comes from the engine RNG in event order, and timeout events
// that lose the race against an ack fire as no-ops rather than being
// canceled — pooled event handles must not be canceled after they may
// have fired (the engine recycles them), so the no-op-on-stale-state
// pattern is the only safe one. Stray no-op timeouts can extend an
// engine run past the last useful event by at most one timeout; they
// never change any result bytes.
package recovery

import (
	"fmt"

	"rvma/internal/metrics"
	"rvma/internal/rvma"
	"rvma/internal/sim"
)

// Config parameterizes the retry policy.
type Config struct {
	// Timeout is the per-attempt ack deadline. It should exceed the
	// worst-case round trip under congestion, or healthy operations pay
	// spurious (harmless but wasteful) retransmits.
	Timeout sim.Time
	// BackoffBase is the delay before the first retransmit; attempt k
	// waits min(BackoffMax, BackoffBase << k). Zero defaults to
	// Timeout / 4.
	BackoffBase sim.Time
	// BackoffMax caps the exponential backoff. Zero defaults to
	// 16 * BackoffBase.
	BackoffMax sim.Time
	// Jitter spreads each backoff by ±Jitter fraction via the engine RNG,
	// decorrelating retry storms from senders that lost packets of the
	// same burst.
	Jitter float64
	// MaxRetries is the retransmit budget per operation (attempts are
	// 1 + MaxRetries). Zero means fail on the first loss.
	MaxRetries int
}

// DefaultConfig returns the policy used by the harness fault sweeps:
// generous timeout (well past an incast-congested round trip), base
// backoff a quarter of it, half-range jitter, and a budget of 8.
func DefaultConfig() Config {
	return Config{
		Timeout:     100 * sim.Microsecond,
		BackoffBase: 25 * sim.Microsecond,
		BackoffMax:  400 * sim.Microsecond,
		Jitter:      0.5,
		MaxRetries:  8,
	}
}

// Stats aggregates recovery-layer counters.
type Stats struct {
	OpsStarted   uint64
	OpsCompleted uint64 // acked (with or without retransmits)
	Retransmits  uint64 // re-sends issued (excludes first attempts)
	Timeouts     uint64 // attempts that hit the ack deadline
	NackRetries  uint64 // attempts cut short by an explicit NACK
	Exhausted    uint64 // operations that ran out of budget
	Recovered    uint64 // operations acked only after >= 1 retransmit
	Reclaims     uint64 // receiver-side buffer reclaims (IncEpoch + Rewind)
}

// Sender is the transport's record of one operation under recovery. It
// embeds the manager's record of the operation, an Op, and tells it of
// the current attempt's ack (Op.Acked) and NACK (Op.Nacked), so an
// attempt is watched without a callback or a future.
type Sender interface {
	// Attempt issues attempt number try (0 is the initial transmission).
	Attempt(try int)
	// Abandon retires the operation once its last attempt failed. The
	// manager calls nothing on the sender after Abandon, or once an
	// attempt is acked, except Release.
	Abandon()
	// Release hands the record back: the operation was acked or
	// abandoned, and no deadline or scheduled retry names its Op any
	// more, so the sender may reuse the record for another operation.
	Release()
}

// Op is the manager's record of one operation: the current attempt's
// number and what it decided. A sender embeds it in its own record, and
// reuses it only once Release has run: no deadline entry, scheduled
// retry or call names it any more (see release).
type Op struct {
	m *Manager
	s Sender // nil while the record is not in use
	// try is the current attempt's number; a deadline entry carries the
	// number of the attempt it guards, so a superseded one is stale.
	try int32
	// pending counts the record's entries in the deadline and retry
	// stages: the events that will still name it.
	pending int32
	// gen counts the operations the record has run; simdebug checks that
	// a stage entry names the operation it was queued for.
	gen uint32
	// acted: the current attempt already decided to retry or give up (a
	// timeout and a NACK race; the first counts). finished: the operation
	// was acked or exhausted.
	acted, finished bool
}

// deadline is a deadline-stage entry: the record and the attempt it
// guards.
type deadline struct {
	r   *Op
	try int32
	gen uint32
}

// retry is a retry-stage entry: the record whose backoff is over.
type retry struct {
	r   *Op
	gen uint32
}

// guardCheck is a guard-stage entry: the window epoch an Expect saw open.
type guardCheck struct {
	g     *WindowGuard
	epoch int64
}

// Shard is what the managers on one engine share: one stage for every
// attempt's ack deadline, one for every guard's reclaim deadline and one
// for the retries waiting out their backoff, each behind one callback,
// so an operation waits without a closure. Every manager on the engine
// has the same timeout and reclaim horizon, which is what lets one
// constant-delay stage hold all their deadlines in firing order
// (sim.DelayStage); backoffs are jittered, so retries wait in a
// sim.TimerStage. The zero Shard is ready: the first manager placed on
// it (Init) fixes its engine and delays.
type Shard struct {
	eng       *sim.Engine
	deadlines sim.DelayStage[deadline]
	guards    sim.DelayStage[guardCheck]
	retries   sim.TimerStage[retry]
}

// join places m on sh, setting the shard up on its first manager. It
// panics if m's engine, timeout or reclaim horizon differs from the
// shard's: one stage cannot hold two delays.
func (sh *Shard) join(m *Manager, eng *sim.Engine) {
	if sh.eng == nil {
		sh.eng = eng
		tag := eng.Tag("recovery")
		sh.deadlines.Init(tag, m.cfg.Timeout, sim.Func(sh.deadlineNext))
		sh.guards.Init(tag, m.reclaimAfter, sim.Func(sh.guardNext))
		sh.retries.Init(tag, sim.Func(sh.retryNext))
		return
	}
	if eng != sh.eng {
		panic("recovery: a manager joined the shard of another engine")
	}
	for _, f := range []struct {
		name      string
		have, got sim.Time
	}{
		{"Timeout", sh.deadlines.Delay(), m.cfg.Timeout},
		{"ReclaimAfter", sh.guards.Delay(), m.reclaimAfter},
	} {
		if f.have != f.got {
			panic(fmt.Sprintf("recovery: a manager has %s %v, the other managers on its engine %v: managers sharing an engine share its stages",
				f.name, f.got, f.have))
		}
	}
}

// Manager drives the retry policy for one endpoint's operations. It is
// engine-local (one per cluster node set, like everything else in a cell)
// and keeps its own Stats.
type Manager struct {
	eng sim.Tagged
	cfg Config
	sh  *Shard // the stages shared with the managers on the same engine

	Stats Stats

	// rng supplies backoff jitter from a manager-private stream: the draw
	// sequence depends only on this manager's own retries, not on which
	// other components happen to share its engine.
	rng sim.RNG

	// tl/node feed the recovery counter tracks (retransmits, timeouts,
	// reclaims) into the Perfetto timeline; nil when metrics are detached.
	tl   *metrics.Timeline
	node int

	reclaimAfter sim.Time
}

// Init makes m, a zero Manager, a manager on eng placed on sh, the shard
// the managers on eng share (a manager alone takes a new(Shard)), filling
// Config defaults for zero fields; seed seeds its private backoff-jitter
// stream. A cluster keeps one manager per node, in one array per shard,
// so m must not move or be copied afterwards. It panics if m's effective
// timeout or reclaim horizon differs from those of the managers already
// on sh.
func (m *Manager) Init(sh *Shard, eng *sim.Engine, cfg Config, seed uint64) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultConfig().Timeout
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = cfg.Timeout / 4
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 16 * cfg.BackoffBase
	}
	if cfg.Jitter < 0 || cfg.Jitter > 1 {
		panic(fmt.Sprintf("recovery: jitter %v outside [0, 1]", cfg.Jitter))
	}
	if cfg.MaxRetries < 0 {
		panic(fmt.Sprintf("recovery: negative retry budget %d", cfg.MaxRetries))
	}
	m.eng, m.cfg, m.sh = eng.Tag("recovery"), cfg, sh
	m.rng.Seed(seed)
	m.reclaimAfter = m.RetryHorizon() + 2*cfg.Timeout
	sh.join(m, eng)
}

// Config returns the effective (default-filled) policy.
func (m *Manager) Config() Config { return m.cfg }

// SetMetrics attaches the registry's timeline so recovery decisions render
// as counter tracks on the given node's Perfetto process. A nil registry
// (or one without a timeline) detaches.
func (m *Manager) SetMetrics(reg *metrics.Registry, node int) {
	m.tl = reg.Timeline()
	m.node = node
}

// Run drives one operation, s, whose record r is embedded in s's:
// s.Attempt(try) issues attempt number try (0 is the initial
// transmission, issued before Run returns). Attempts that neither ack nor
// NACK within Timeout are retransmitted after a jittered backoff, up to
// MaxRetries; exhaustion calls s.Abandon. r must not be in use: a record
// is free before its first operation and after Release.
//
//rvmalint:hot
func (m *Manager) Run(r *Op, s Sender) {
	if sim.DebugEnabled {
		sim.Assertf(r.s == nil && r.pending == 0, "recovery: operation record reused while %d stage entries name it", r.pending)
	}
	m.Stats.OpsStarted++
	*r = Op{m: m, s: s, gen: r.gen + 1}
	r.attempt(0)
}

// attempt issues attempt try and arms its deadline. The deadline fires
// unconditionally and no-ops when stale (see the package comment for
// why it is never canceled).
//
//rvmalint:hot
func (r *Op) attempt(try int) {
	r.try, r.acted = int32(try), false
	r.s.Attempt(try)
	r.pending++
	r.m.sh.deadlines.Add(deadline{r: r, try: r.try, gen: r.gen})
}

// Acked completes the operation: the sender calls it when the current
// attempt is acked. Only the first ack counts.
//
//rvmalint:hot
func (r *Op) Acked() {
	if r.finished {
		return
	}
	r.finished = true
	r.m.Stats.OpsCompleted++
	if r.try > 0 {
		r.m.Stats.Recovered++
	}
}

// Nacked cuts the current attempt short: the sender calls it when the
// attempt's first NACK arrives. An attempt that already decided, or an
// operation that finished, ignores it.
//
//rvmalint:hot
func (r *Op) Nacked() {
	if r.finished || r.acted {
		return
	}
	r.decide(false)
}

// deadlineNext is the deadline stage's callback: the head entry's attempt
// hit its deadline, which counts only if that attempt is still the
// current, undecided one.
//
//rvmalint:hot
func (sh *Shard) deadlineNext() {
	e := sh.deadlines.Next()
	r := e.r
	if sim.DebugEnabled {
		r.checkEntry(e.gen)
	}
	r.pending--
	if e.try == r.try && !r.acted && !r.finished {
		r.decide(true)
	}
	r.release()
}

// decide retries the current attempt after a backoff, or abandons the
// operation once the budget is spent.
//
//rvmalint:hot
func (r *Op) decide(timedOut bool) {
	m := r.m
	r.acted = true
	if timedOut {
		m.Stats.Timeouts++
		m.tl.Counter(m.node, "recovery.timeouts", m.eng.Now(), float64(m.Stats.Timeouts))
	} else {
		m.Stats.NackRetries++
	}
	if int(r.try) >= m.cfg.MaxRetries {
		m.Stats.Exhausted++
		r.finished = true
		r.s.Abandon()
		return
	}
	m.Stats.Retransmits++
	m.tl.Counter(m.node, "recovery.retransmits", m.eng.Now(), float64(m.Stats.Retransmits))
	if sim.DebugEnabled {
		m.debugCheckBudget()
	}
	r.pending++
	m.sh.retries.Add(m.backoff(int(r.try)), retry{r: r, gen: r.gen})
}

// retryNext is the retry stage's callback: a retry's backoff is over, and
// it issues the next attempt unless the operation was acked while it
// waited.
//
//rvmalint:hot
func (sh *Shard) retryNext() {
	e := sh.retries.Next()
	r := e.r
	if sim.DebugEnabled {
		r.checkEntry(e.gen)
	}
	r.pending--
	if r.finished {
		r.release()
		return
	}
	r.attempt(int(r.try) + 1)
}

// release hands a finished record back to its sender once nothing can
// name it any more: no deadline entry is left in the stage and no retry
// is scheduled. The sender resolves only the current operation of a
// record (Acked, Nacked), so a stale ack or NACK cannot reach it either.
//
//rvmalint:hot
func (r *Op) release() {
	if !r.finished || r.pending > 0 {
		return
	}
	s := r.s
	r.s = nil
	s.Release()
}

// checkEntry asserts that a stage entry queued for operation gen of the
// record names the record's current operation: the record went back to
// its sender only once no entry named it.
func (r *Op) checkEntry(gen uint32) {
	sim.Assertf(r.s != nil && r.gen == gen && r.pending > 0,
		"recovery: a stage entry of operation %d names a record released or running operation %d", gen, r.gen)
}

// DropPools releases the idle arrays of the stages m shares with the
// managers on its engine, which are sized by a run's peak of operations
// in flight. Call it between runs, not inside one.
func (m *Manager) DropPools() { m.sh.drop() }

func (sh *Shard) drop() {
	sh.deadlines.Drop()
	sh.guards.Drop()
	sh.retries.Drop()
}

// HeldPools names the shared stages that hold an array: none once
// DropPools has run after a drained run.
func (m *Manager) HeldPools() []string {
	var names []string
	for _, s := range []struct {
		name string
		held bool
	}{
		{"deadlines", m.sh.deadlines.Held()}, {"guards", m.sh.guards.Held()}, {"retries", m.sh.retries.Held()},
	} {
		if s.held {
			names = append(names, s.name)
		}
	}
	return names
}

// backoff returns the jittered delay before retransmit number try+1.
func (m *Manager) backoff(try int) sim.Time {
	d := m.cfg.BackoffMax
	if try < 30 { // beyond 2^30 the shift alone exceeds any sane cap
		if shifted := m.cfg.BackoffBase << uint(try); shifted < d {
			d = shifted
		}
	}
	if m.cfg.Jitter > 0 {
		d = m.rng.Jitter(d, m.cfg.Jitter)
	}
	return d
}

// RetryHorizon bounds how long a sender can keep retrying one operation:
// every attempt's timeout plus every maximal backoff (jitter can stretch
// each backoff by at most the jitter fraction). Receiver-side reclaim
// waits past this horizon so it never races a retransmit that could still
// legitimately complete the current buffer.
func (m *Manager) RetryHorizon() sim.Time {
	h := sim.Scale(m.cfg.MaxRetries+1, m.cfg.Timeout)
	for try := 0; try < m.cfg.MaxRetries; try++ {
		d := m.cfg.BackoffMax
		if try < 30 {
			if shifted := m.cfg.BackoffBase << uint(try); shifted < d {
				d = shifted
			}
		}
		h += d + sim.ScaleF(d, m.cfg.Jitter)
	}
	return h
}

// WindowGuard ties receiver-side timeouts to an RVMA window: when an
// expected message has not completed the window's epoch by the reclaim
// deadline, the guard hands the holed buffer to software with IncEpoch
// and records it via Rewind — reclaimed and reposted instead of leaked,
// the §IV-F recovery path. The deadline is the manager's reclaim horizon
// (ReclaimAfter): past the sender's retry horizon plus slack, so a buffer
// is only reclaimed once no retransmit can still be in flight for its
// epoch.
type WindowGuard struct {
	m      *Manager
	win    *rvma.Window
	rewind func() // g.rewindHead, bound at the guard's first reclaim
}

// GuardWindows builds a guard for each of wins, in one array, with the
// reclaim deadline derived from the manager's retry policy.
func (m *Manager) GuardWindows(wins []rvma.Window) []WindowGuard {
	gs := make([]WindowGuard, len(wins))
	for i := range gs {
		gs[i] = WindowGuard{m: m, win: &wins[i]}
	}
	return gs
}

// ReclaimAfter is how long after an operation starts its packets can
// still arrive: the retry horizon plus two timeouts of slack (the timeout
// exceeds a worst-case round trip). Guard deadlines wait this long, and
// receivers may forget a reliable message's reassembly state this long
// after its first packet.
func (m *Manager) ReclaimAfter() sim.Time { return m.reclaimAfter }

// Expect arms a one-shot deadline for the window's current epoch: if that
// epoch is still open at the deadline and its buffer holds partial data,
// the buffer is reclaimed. One Expect per expected completion; the check
// is a single scheduled event, never a self-rescheduling ticker (a ticker
// would keep the engine run alive forever).
//
//rvmalint:hot
func (g *WindowGuard) Expect() {
	g.m.sh.guards.Add(guardCheck{g: g, epoch: g.win.Epoch()})
}

// guardNext is the guard stage's callback.
//
//rvmalint:hot
func (sh *Shard) guardNext() {
	c := sh.guards.Next()
	c.g.check(c.epoch)
}

func (g *WindowGuard) check(epoch int64) {
	w := g.win
	if w.Closed() || w.Epoch() != epoch {
		return // the epoch completed (or the run is over); nothing leaked
	}
	head := w.Head()
	if head == nil || (head.HighWater == 0 && head.Fill == 0) {
		// Nothing partial to salvage: either no buffer or an untouched one
		// (the message may be wholly lost — that is the sender's failure
		// to report, not a receiver leak).
		return
	}
	g.reclaim()
}

// reclaim hands the holed head buffer to software and retrieves it.
func (g *WindowGuard) reclaim() {
	w := g.win
	f, err := w.IncEpoch()
	if err != nil {
		return
	}
	g.m.Stats.Reclaims++
	g.m.tl.Counter(g.m.node, "recovery.reclaims", g.m.eng.Now(), float64(g.m.Stats.Reclaims))
	if g.rewind == nil {
		//rvmalint:allow hotalloc -- bound once per guard, on its first reclaim, then reused for every later one
		g.rewind = g.rewindHead
	}
	f.OnComplete(g.rewind)
}

// rewindHead retrieves the salvaged buffer through the paper's rewind
// handle; the completion handler installed by the transport reposts in
// its place.
func (g *WindowGuard) rewindHead() { g.win.Rewind(1) }

// debugCheckBudget asserts the tentpole's simdebug invariant: the layer
// never issues more retransmits than the budget allows across all started
// operations.
func (m *Manager) debugCheckBudget() {
	sim.Assertf(m.Stats.Retransmits <= uint64(m.cfg.MaxRetries)*m.Stats.OpsStarted,
		"recovery: %d retransmits exceed budget %d x %d ops",
		m.Stats.Retransmits, m.cfg.MaxRetries, m.Stats.OpsStarted)
}
