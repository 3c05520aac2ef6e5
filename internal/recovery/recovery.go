// Package recovery is the deterministic sender-side reliability layer:
// per-operation timeouts on simulated time, retransmission with
// exponential backoff and engine-RNG jitter, and a bounded retry budget.
// It is deliberately protocol-agnostic — an operation is anything that
// exposes "acked" and (optionally) "nacked" futures — so the RVMA
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
	"errors"
	"fmt"

	"rvma/internal/metrics"
	"rvma/internal/rvma"
	"rvma/internal/sim"
)

// ErrExhausted is the failure an operation's Done future resolves with
// when the retry budget runs out.
var ErrExhausted = errors.New("recovery: retry budget exhausted")

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
// explicit negative acknowledgment (RDMA).
type Attempt struct {
	Acked *sim.Future
	Nack  *sim.Future
}

// Op tracks one operation under recovery.
type Op struct {
	// Done resolves with nil once the operation is acked, or with
	// ErrExhausted when the budget runs out.
	Done *sim.Future

	tries int
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
	rng *sim.RNG

	// tl/node feed the recovery counter tracks (retransmits, timeouts,
	// reclaims) into the Perfetto timeline; nil when metrics are detached.
	tl   *metrics.Timeline
	node int
}

// NewManager builds a manager, filling Config defaults for zero fields.
// rng is the manager's private backoff-jitter stream.
func NewManager(eng *sim.Engine, cfg Config, rng *sim.RNG) *Manager {
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
	return &Manager{eng: eng.Tag("recovery"), cfg: cfg, rng: rng}
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

// Run drives one operation: send(try) issues attempt number try (0 is the
// initial transmission) and returns its futures. Attempts that neither
// ack nor NACK within Timeout are retransmitted after a jittered backoff,
// up to MaxRetries; exhaustion calls onFail (if non-nil) and fails Done
// with ErrExhausted.
func (m *Manager) Run(send func(try int) Attempt, onFail func()) *Op {
	m.Stats.OpsStarted++
	op := &Op{Done: sim.NewFuture()}
	var attempt func(try int)
	attempt = func(try int) {
		if op.Done.Done() {
			return // acked while this retransmit was waiting out its backoff
		}
		op.tries = try
		at := send(try)
		acted := false // this attempt already decided to retry or give up
		at.Acked.OnComplete(func() {
			if op.Done.Done() {
				return
			}
			m.Stats.OpsCompleted++
			if op.tries > 0 {
				m.Stats.Recovered++
			}
			op.Done.Complete(m.eng.Engine, nil)
		})
		decide := func(timedOut bool) {
			if acted || op.Done.Done() || at.Acked.Done() {
				return
			}
			acted = true
			if timedOut {
				m.Stats.Timeouts++
				m.tl.Counter(m.node, "recovery.timeouts", m.eng.Now(), float64(m.Stats.Timeouts))
			} else {
				m.Stats.NackRetries++
			}
			if try >= m.cfg.MaxRetries {
				m.Stats.Exhausted++
				if onFail != nil {
					onFail()
				}
				op.Done.Complete(m.eng.Engine, ErrExhausted)
				return
			}
			m.Stats.Retransmits++
			m.tl.Counter(m.node, "recovery.retransmits", m.eng.Now(), float64(m.Stats.Retransmits))
			if sim.DebugEnabled {
				m.debugCheckBudget()
			}
			m.eng.Schedule(m.backoff(try), func() { attempt(try + 1) })
		}
		if at.Nack != nil {
			at.Nack.OnComplete(func() { decide(false) })
		}
		// The timeout fires unconditionally and no-ops when stale (see the
		// package comment for why it is never canceled).
		m.eng.Schedule(m.cfg.Timeout, func() { decide(true) })
	}
	attempt(0)
	return op
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
// the §IV-F recovery path.
type WindowGuard struct {
	m   *Manager
	win *rvma.Window
	// after is the reclaim deadline per Expect: past the sender's retry
	// horizon (plus slack), so a buffer is only reclaimed once no
	// retransmit can still be in flight for its epoch.
	after sim.Time
}

// GuardWindow builds a guard for win with the reclaim deadline derived
// from the manager's retry policy.
func (m *Manager) GuardWindow(win *rvma.Window) *WindowGuard {
	return &WindowGuard{m: m, win: win, after: m.RetryHorizon() + 2*m.cfg.Timeout}
}

// Expect arms a one-shot deadline for the window's current epoch: if that
// epoch is still open at the deadline and its buffer holds partial data,
// the buffer is reclaimed. One Expect per expected completion; the check
// is a single scheduled event, never a self-rescheduling ticker (a ticker
// would keep the engine run alive forever).
func (g *WindowGuard) Expect() {
	epoch := g.win.Epoch()
	g.m.eng.Schedule(g.after, func() { g.check(epoch) })
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
	f, err := w.IncEpoch()
	if err != nil {
		return
	}
	g.m.Stats.Reclaims++
	g.m.tl.Counter(g.m.node, "recovery.reclaims", g.m.eng.Now(), float64(g.m.Stats.Reclaims))
	f.OnComplete(func() {
		// Retrieve the salvaged buffer through the paper's rewind handle;
		// the completion handler installed by the transport reposts in
		// its place.
		w.Rewind(1)
	})
}

// debugCheckBudget asserts the tentpole's simdebug invariant: the layer
// never issues more retransmits than the budget allows across all started
// operations.
func (m *Manager) debugCheckBudget() {
	sim.Assertf(m.Stats.Retransmits <= uint64(m.cfg.MaxRetries)*m.Stats.OpsStarted,
		"recovery: %d retransmits exceed budget %d x %d ops",
		m.Stats.Retransmits, m.cfg.MaxRetries, m.Stats.OpsStarted)
}
