package recovery

import (
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
	m := new(Manager)
	m.Init(new(Shard), eng, cfg, sim.SeedFor(11, "storm-backoff"))

	storm := make([]*scriptedOp, ops)
	sends := make([][]sim.Time, ops)
	eng.Schedule(0, func() {
		for i := range storm {
			storm[i] = lossySender(eng, 99, 0)
			storm[i].run(m)
		}
	})
	end := eng.Run()
	for i, o := range storm {
		sends[i] = o.sends
	}

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

	// Exhaustion accounting: every op failed exactly once, with exactly
	// one Abandon each and no ack.
	if s.Exhausted != ops || s.OpsCompleted != 0 || s.Recovered != 0 {
		t.Errorf("stats = %+v, want %d exhausted and nothing completed", s, ops)
	}
	for i, o := range storm {
		if !o.exhausted() {
			t.Errorf("op %d: %d abandons and %d acks, want exactly one abandon", i, o.abandons, o.acks)
		}
	}

	// The storm's schedule is the one the closure-per-attempt manager
	// produced: same counters, attempt times and last event.
	wantStats := Stats{OpsStarted: 32, Retransmits: 128, Timeouts: 160, Exhausted: 32}
	checkStorm(t, s, sends, end, wantStats, 7410662057, 160, 149344806)
}

// checkStorm compares a storm's counters, the sum and count of its
// attempt times and its last event time with the values recorded for the
// same seeds before the manager's records were pooled.
func checkStorm(t *testing.T, s Stats, sends [][]sim.Time, end sim.Time, want Stats, wantSum sim.Time, wantN int, wantEnd sim.Time) {
	t.Helper()
	var sum sim.Time
	n := 0
	for _, at := range sends {
		for _, x := range at {
			sum += x
			n++
		}
	}
	if s != want || sum != wantSum || n != wantN || end != wantEnd {
		t.Errorf("storm: stats %+v, %d attempts summing to %v, ending at %v; want %+v, %d summing to %v, ending at %v",
			s, n, sum, end, want, wantN, wantSum, wantEnd)
	}
}

// TestRetryStormDeterministic pins that the storm above — including every
// jitter draw — replays byte-identically from the same seeds, so the
// backoff-bound assertions are stable, not flaky-by-construction.
func TestRetryStormDeterministic(t *testing.T) {
	run := func() ([]sim.Time, Stats) {
		const ops = 16
		eng := sim.NewEngine(23)
		m := new(Manager)
		m.Init(new(Shard), eng, stormConfig(), sim.SeedFor(23, "storm-backoff"))
		storm := make([]*scriptedOp, ops)
		eng.Schedule(0, func() {
			for i := range storm {
				storm[i] = lossySender(eng, 99, 0)
				storm[i].run(m)
			}
		})
		end := eng.Run()
		var flat []sim.Time
		sends := make([][]sim.Time, ops)
		for i, o := range storm {
			flat = append(flat, o.sends...)
			sends[i] = o.sends
		}
		checkStorm(t, m.Stats, sends, end, Stats{OpsStarted: 16, Retransmits: 64, Timeouts: 80, Exhausted: 16},
			3808634020, 80, 149383949)
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
	m := new(Manager)
	m.Init(new(Shard), eng, cfg, sim.SeedFor(31, "storm-backoff"))

	storm := make([]*scriptedOp, ops)
	sends := make([][]sim.Time, ops)
	drops := func(i int) int {
		if i%3 == 0 {
			return 99 // black hole: must exhaust
		}
		return i % 3 // 1 or 2 losses: recovers inside the budget
	}
	eng.Schedule(0, func() {
		for i := range storm {
			storm[i] = lossySender(eng, drops(i), 2*sim.Microsecond)
			storm[i].run(m)
		}
	})
	end := eng.Run()
	for i, o := range storm {
		sends[i] = o.sends
	}

	var wantExhausted, wantRecovered uint64
	for i := 0; i < ops; i++ {
		if drops(i) > cfg.MaxRetries {
			wantExhausted++
			if !storm[i].exhausted() {
				t.Errorf("black-holed op %d: %d abandons and %d acks, want exactly one abandon",
					i, storm[i].abandons, storm[i].acks)
			}
			continue
		}
		wantRecovered++
		if !storm[i].acked() {
			t.Errorf("surviving op %d: %d abandons and %d acks, want exactly one ack",
				i, storm[i].abandons, storm[i].acks)
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
	checkStorm(t, s, sends, end,
		Stats{OpsStarted: 24, OpsCompleted: 16, Retransmits: 56, Timeouts: 64, Exhausted: 8, Recovered: 16},
		2314790052, 80, 138732423)
}
