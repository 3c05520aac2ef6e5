// Package recovery is the deterministic sender-side reliability layer:
// per-operation timeouts on simulated time, retransmission with
// exponential backoff and engine-RNG jitter, and a bounded retry budget.
// It is deliberately protocol-agnostic — an operation is any Sender whose
// attempts expose "acked" and (optionally) "nacked" futures — so the RVMA
// transport (driven by PutOp.Nack and the reliable put's placement ack)
// and the RDMA transport (driven by its transport-ACK path) share one
// retry policy and the paper's comparison stays fair.
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

// Attempt is one wire attempt of a guarded operation: the futures the
// protocol layer hands back for it. Nack may be nil for protocols without
// explicit negative acknowledgment (RDMA). Only the current attempt
// counts: a sender completes an attempt's futures only while it is the
// operation's latest one and the manager has neither seen it acked nor
// abandoned the operation, which is what rvma and rdma do by resolving
// whichever attempt is current. The manager ignores the completion of any
// other future.
type Attempt struct {
	Acked *sim.Future
	Nack  *sim.Future
}

// Sender is the transport's record of one operation under recovery.
type Sender interface {
	// Attempt issues attempt number try (0 is the initial transmission)
	// and returns its futures.
	Attempt(try int) Attempt
	// Abandon retires the operation once its last attempt failed. The
	// manager calls nothing on the sender after Abandon, or once an
	// attempt is acked.
	Abandon()
}

// op is the manager's record of one operation: the current attempt's
// futures and number, and callbacks bound once, so an attempt schedules
// and waits without a closure. Records are reused through the manager's
// free list, but only once no timeout entry, scheduled retry or live
// future can still name one: see release.
type op struct {
	m  *Manager
	s  Sender
	at Attempt // the current attempt's futures
	// try is the current attempt's number; a timeout entry carries the
	// number of the attempt it guards, so a superseded one is stale.
	try int32
	// pending counts the record's entries in the timeout stage and its
	// scheduled retry: the events that will still name it.
	pending int32
	// acted: the current attempt already decided to retry or give up (a
	// timeout and a NACK race; the first counts). finished: the operation
	// was acked or exhausted.
	acted, finished      bool
	onAck, onNack, retry func() // r.acked, r.nacked, r.retransmit
	next                 *op    // the free list
}

// timeout is a timeout-stage entry: the record and the attempt it guards.
type timeout struct {
	r   *op
	try int32
}

// guardCheck is a guard-stage entry: the window epoch an Expect saw open.
type guardCheck struct {
	g     *WindowGuard
	epoch int64
}

// Manager drives the retry policy for one endpoint's operations. It is
// engine-local (one per cluster node set, like everything else in a cell)
// and keeps its own Stats.
type Manager struct {
	eng sim.Tagged
	cfg Config

	Stats Stats

	// rng supplies backoff jitter from a manager-private stream: the draw
	// sequence depends only on this manager's own retries, not on which
	// other components happen to share its engine.
	rng sim.RNG

	// tl/node feed the recovery counter tracks (retransmits, timeouts,
	// reclaims) into the Perfetto timeline; nil when metrics are detached.
	tl   *metrics.Timeline
	node int

	// Every attempt's timeout has the same delay, cfg.Timeout, and every
	// guard's deadline the same reclaimAfter, so both wait in stages
	// instead of closures. Each stage's callback is bound on first use:
	// most managers of a large cluster never guard a window.
	timeouts     sim.Stage[timeout]
	guards       sim.Stage[guardCheck]
	reclaimAfter sim.Time
	free         *op // records no operation is using
}

// Init makes m, a zero Manager, a manager on eng, filling Config defaults
// for zero fields; seed seeds its private backoff-jitter stream. A cluster
// keeps one manager per node, in one array per shard, so m must not move
// or be copied afterwards.
func (m *Manager) Init(eng *sim.Engine, cfg Config, seed uint64) {
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
	m.eng, m.cfg = eng.Tag("recovery"), cfg
	m.rng.Seed(seed)
	m.reclaimAfter = m.RetryHorizon() + 2*cfg.Timeout
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

// Run drives one operation: s.Attempt(try) issues attempt number try (0
// is the initial transmission, issued before Run returns). Attempts that
// neither ack nor NACK within Timeout are retransmitted after a jittered
// backoff, up to MaxRetries; exhaustion calls s.Abandon.
//
//rvmalint:hot
func (m *Manager) Run(s Sender) {
	m.Stats.OpsStarted++
	r := m.free
	if r != nil {
		m.free, r.next = r.next, nil
	} else {
		//rvmalint:allow hotalloc -- free-list miss: records return once their last timeout fires, so the list grows to the peak of operations in flight and then stays
		r = &op{m: m}
		r.onAck, r.onNack, r.retry = r.acked, r.nacked, r.retransmit
	}
	r.s = s
	r.attempt(0)
}

// attempt issues attempt try and arms its timeout. The timeout fires
// unconditionally and no-ops when stale (see the package comment for
// why it is never canceled).
//
//rvmalint:hot
func (r *op) attempt(try int) {
	m := r.m
	r.try, r.acted = int32(try), false
	r.at = r.s.Attempt(try)
	r.at.Acked.OnComplete(r.onAck)
	if r.at.Nack != nil {
		r.at.Nack.OnComplete(r.onNack)
	}
	r.pending++
	if m.timeouts.Fn == nil {
		m.timeouts.Fn = m.timedOut
	}
	m.timeouts.Push(m.eng.Now()+m.cfg.Timeout, timeout{r: r, try: r.try})
	m.eng.Schedule(m.cfg.Timeout, m.timeouts.Fn)
}

// acked completes the operation when its current attempt is acked.
//
//rvmalint:hot
func (r *op) acked() {
	if r.finished || !r.at.Acked.Done() {
		return
	}
	r.finished = true
	r.m.Stats.OpsCompleted++
	if r.try > 0 {
		r.m.Stats.Recovered++
	}
}

// nacked cuts the current attempt short when its NACK arrives.
//
//rvmalint:hot
func (r *op) nacked() {
	if r.finished || r.acted || r.at.Nack == nil || !r.at.Nack.Done() {
		return
	}
	r.decide(false)
}

// timedOut is the timeout stage's callback: the head entry's attempt hit
// its deadline, which counts only if that attempt is still the current,
// undecided one.
//
//rvmalint:hot
func (m *Manager) timedOut() {
	e := m.timeouts.Pop(m.eng.Now())
	r := e.r
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
func (r *op) decide(timedOut bool) {
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
	m.eng.Schedule(m.backoff(int(r.try)), r.retry)
}

// retransmit runs when a retry's backoff is over: it issues the next
// attempt unless the operation was acked while it waited.
//
//rvmalint:hot
func (r *op) retransmit() {
	r.pending--
	if r.finished {
		r.release()
		return
	}
	r.attempt(int(r.try) + 1)
}

// release returns a finished record to the free list once nothing can
// name it any more: no timeout entry is left in the stage and no retry is
// scheduled. Its attempts' futures cannot complete after it finished (see
// Attempt), so a callback a never-completed future holds is dead.
//
//rvmalint:hot
func (r *op) release() {
	if !r.finished || r.pending > 0 {
		return
	}
	m := r.m
	r.s, r.at, r.finished = nil, Attempt{}, false
	r.next, m.free = m.free, r
}

// DropPools releases the free records and the stages' idle queue arrays,
// which are sized by a run's peak of operations in flight.
func (m *Manager) DropPools() {
	m.free = nil
	m.timeouts.Drop()
	m.guards.Drop()
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
	m := g.m
	if m.guards.Fn == nil {
		m.guards.Fn = m.checkGuard
	}
	m.guards.Push(m.eng.Now()+m.reclaimAfter, guardCheck{g: g, epoch: g.win.Epoch()})
	m.eng.Schedule(m.reclaimAfter, m.guards.Fn)
}

// checkGuard is the guard stage's callback.
//
//rvmalint:hot
func (m *Manager) checkGuard() {
	c := m.guards.Pop(m.eng.Now())
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
