package recovery

import (
	"errors"
	"testing"

	"rvma/internal/sim"
)

// stormConfig is a tight, fully explicit policy so the bound arithmetic
// in the assertions below is exact: gap k = Timeout + jittered
// min(BackoffMax, BackoffBase<<k), jitter ±50%.
func stormConfig() Config {
	return Config{
		Timeout:     10 * sim.Microsecond,
		BackoffBase: 5 * sim.Microsecond,
		BackoffMax:  40 * sim.Microsecond,
		Jitter:      0.5,
		MaxRetries:  4,
	}
}

// stormBackoffBounds returns the [lo, hi] window the gap between attempt
// try and try+1 must land in under cfg: the mandatory timeout plus the
// exponential backoff spread by ±Jitter. slack absorbs ScaleF's sub-ns
// fixed-point rounding.
func stormBackoffBounds(cfg Config, try int) (lo, hi sim.Time) {
	d := cfg.BackoffMax
	if shifted := cfg.BackoffBase << uint(try); shifted < d {
		d = shifted
	}
	const slack = sim.Time(1) // 1 ps of rounding headroom
	lo = cfg.Timeout + sim.ScaleF(d, 1-cfg.Jitter) - slack
	hi = cfg.Timeout + sim.ScaleF(d, 1+cfg.Jitter) + slack
	return lo, hi
}

// TestRetryStormBackoffBoundsBurstRate drives a storm of concurrent ops
// into a black hole (nothing is ever acked) and checks the property the
// recovery layer exists to provide: retransmissions are rate-limited by
// jittered exponential backoff, per op and in aggregate, so a loss storm
// cannot snowball into a retransmit storm.
func TestRetryStormBackoffBoundsBurstRate(t *testing.T) {
	const ops = 32
	cfg := stormConfig()
	eng := sim.NewEngine(11)
	m := NewManager(eng, cfg, sim.NewRNG(sim.SeedFor(11, "storm-backoff")))

	sends := make([][]sim.Time, ops)
	fails := make([]int, ops)
	opDone := make([]*Op, ops)
	eng.Schedule(0, func() {
		for i := 0; i < ops; i++ {
			i := i
			opDone[i] = m.Run(lossySender(eng, 99, 0, &sends[i]), func() { fails[i]++ })
		}
	})
	eng.Run()

	// Every op spent its full budget: 1 initial + MaxRetries attempts.
	for i := 0; i < ops; i++ {
		if len(sends[i]) != cfg.MaxRetries+1 {
			t.Fatalf("op %d made %d attempts, want %d", i, len(sends[i]), cfg.MaxRetries+1)
		}
		// Each consecutive gap sits inside the jittered backoff window for
		// its retry number — never faster (burst bound) and never slower
		// (liveness bound).
		for k := 0; k+1 < len(sends[i]); k++ {
			lo, hi := stormBackoffBounds(cfg, k)
			gap := sends[i][k+1] - sends[i][k]
			if gap < lo || gap > hi {
				t.Errorf("op %d retry %d gap %v outside jittered window [%v, %v]", i, k, gap, lo, hi)
			}
		}
	}

	// Jitter must actually spread the storm: with a ±50% window and 32 ops
	// retrying in lockstep otherwise, at least two first-retry gaps differ.
	first := map[sim.Time]bool{}
	for i := 0; i < ops; i++ {
		first[sends[i][1]-sends[i][0]] = true
	}
	if len(first) < 2 {
		t.Errorf("all %d ops drew the identical first backoff %v; jitter not applied", ops, sends[0][1]-sends[0][0])
	}

	// Aggregate burst-rate bound: the whole storm never exceeds the
	// per-op budget, and no attempt lands past the advertised horizon.
	s := m.Stats
	if s.Retransmits != uint64(ops*cfg.MaxRetries) {
		t.Errorf("retransmits = %d, want exactly ops*budget = %d", s.Retransmits, ops*cfg.MaxRetries)
	}
	if s.Retransmits > uint64(cfg.MaxRetries)*s.OpsStarted {
		t.Errorf("budget invariant violated: %+v", s)
	}
	horizon := m.RetryHorizon()
	for i := 0; i < ops; i++ {
		for k, at := range sends[i] {
			if at > horizon {
				t.Fatalf("op %d attempt %d at %v, past retry horizon %v", i, k, at, horizon)
			}
		}
	}

	// Exhaustion accounting: every op failed exactly once, exactly one
	// onFail call each, and Done resolved to ErrExhausted.
	if s.Exhausted != ops || s.OpsCompleted != 0 || s.Recovered != 0 {
		t.Errorf("stats = %+v, want %d exhausted and nothing completed", s, ops)
	}
	for i := 0; i < ops; i++ {
		if fails[i] != 1 {
			t.Errorf("op %d: onFail called %d times, want exactly 1", i, fails[i])
		}
		err, _ := opDone[i].Done.Value().(error)
		if !opDone[i].Done.Done() || !errors.Is(err, ErrExhausted) {
			t.Errorf("op %d: done=%v value=%v, want ErrExhausted",
				i, opDone[i].Done.Done(), opDone[i].Done.Value())
		}
	}
}

// TestRetryStormDeterministic pins that the storm above — including every
// jitter draw — replays byte-identically from the same seeds, so the
// backoff-bound assertions are stable, not flaky-by-construction.
func TestRetryStormDeterministic(t *testing.T) {
	run := func() ([]sim.Time, Stats) {
		const ops = 16
		eng := sim.NewEngine(23)
		m := NewManager(eng, stormConfig(), sim.NewRNG(sim.SeedFor(23, "storm-backoff")))
		sends := make([][]sim.Time, ops)
		eng.Schedule(0, func() {
			for i := 0; i < ops; i++ {
				i := i
				m.Run(lossySender(eng, 99, 0, &sends[i]), nil)
			}
		})
		eng.Run()
		var flat []sim.Time
		for _, s := range sends {
			flat = append(flat, s...)
		}
		return flat, m.Stats
	}
	t1, s1 := run()
	t2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("attempt counts differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("attempt %d at %v vs %v across identical runs", i, t1[i], t2[i])
		}
	}
}

// TestRetryStormPartialRecovery mixes survivors into the storm: ops whose
// losses stop before the budget runs out must recover (with their early
// gaps still bounded), while the black-holed ops exhaust — and the two
// populations' accounting must not bleed into each other.
func TestRetryStormPartialRecovery(t *testing.T) {
	const ops = 24
	cfg := stormConfig()
	eng := sim.NewEngine(31)
	m := NewManager(eng, cfg, sim.NewRNG(sim.SeedFor(31, "storm-backoff")))

	sends := make([][]sim.Time, ops)
	fails := make([]int, ops)
	opDone := make([]*Op, ops)
	drops := func(i int) int {
		if i%3 == 0 {
			return 99 // black hole: must exhaust
		}
		return i % 3 // 1 or 2 losses: recovers inside the budget
	}
	eng.Schedule(0, func() {
		for i := 0; i < ops; i++ {
			i := i
			opDone[i] = m.Run(lossySender(eng, drops(i), 2*sim.Microsecond, &sends[i]), func() { fails[i]++ })
		}
	})
	eng.Run()

	var wantExhausted, wantRecovered uint64
	for i := 0; i < ops; i++ {
		if drops(i) > cfg.MaxRetries {
			wantExhausted++
			if fails[i] != 1 {
				t.Errorf("black-holed op %d: onFail called %d times, want 1", i, fails[i])
			}
			err, _ := opDone[i].Done.Value().(error)
			if !errors.Is(err, ErrExhausted) {
				t.Errorf("black-holed op %d: value %v, want ErrExhausted", i, opDone[i].Done.Value())
			}
			continue
		}
		wantRecovered++
		if fails[i] != 0 {
			t.Errorf("surviving op %d: onFail called %d times, want 0", i, fails[i])
		}
		if opDone[i].Done.Value() != nil {
			t.Errorf("surviving op %d failed: %v", i, opDone[i].Done.Value())
		}
		if len(sends[i]) != drops(i)+1 {
			t.Errorf("surviving op %d made %d attempts, want %d", i, len(sends[i]), drops(i)+1)
		}
		// A survivor's retransmit gaps obey the same backoff windows as the
		// doomed ops — recovery never fast-paths the timeout.
		for k := 0; k+1 < len(sends[i]); k++ {
			lo, hi := stormBackoffBounds(cfg, k)
			gap := sends[i][k+1] - sends[i][k]
			if gap < lo || gap > hi {
				t.Errorf("op %d retry %d gap %v outside [%v, %v]", i, k, gap, lo, hi)
			}
		}
	}
	s := m.Stats
	if s.Exhausted != wantExhausted || s.Recovered != wantRecovered {
		t.Errorf("stats = %+v, want %d exhausted / %d recovered", s, wantExhausted, wantRecovered)
	}
	if s.OpsCompleted != wantRecovered || s.OpsStarted != ops {
		t.Errorf("stats = %+v, want %d completed of %d started", s, wantRecovered, ops)
	}
}
