package ledger

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"rvma/internal/sim"
)

// driveModel runs a small deterministic model: chained events across two
// tagged components plus a daemon rider, returning the engine.
func driveModel(t *testing.T, rec *CanonicalRecorder, seed uint64, events int, daemons bool) *sim.Engine {
	t.Helper()
	eng := sim.NewEngine(seed)
	a := eng.Tag("alpha")
	b := eng.Tag("beta")
	if rec != nil {
		rec.Attach(eng)
	}
	var step func(i int)
	step = func(i int) {
		if i >= events {
			return
		}
		next := a
		if i%3 == 0 {
			next = b
		}
		next.ScheduleP(sim.Time(1+eng.RNG().Intn(5))*sim.Nanosecond, i%2, func() { step(i + 1) })
	}
	if daemons {
		var tick func()
		tick = func() { eng.ScheduleDaemonP(sim.Nanosecond, -1, tick) }
		tick()
	}
	eng.Schedule(0, func() { step(0) })
	eng.Run()
	return eng
}

func TestRecorderDeterministicChain(t *testing.T) {
	r1 := NewCanonicalRecorder(Options{EpochEvents: 16})
	driveModel(t, r1, 7, 100, false)
	l1 := r1.Finalize()

	r2 := NewCanonicalRecorder(Options{EpochEvents: 16})
	driveModel(t, r2, 7, 100, false)
	l2 := r2.Finalize()

	if l1.ChainHead != l2.ChainHead {
		t.Fatalf("same seed produced different chain heads: %s vs %s", l1.ChainHead, l2.ChainHead)
	}
	if l1.Events != l2.Events || l1.Events == 0 {
		t.Fatalf("event counts: %d vs %d", l1.Events, l2.Events)
	}
	d := Compare(l1, l2)
	if !d.Identical {
		t.Fatalf("identical runs reported divergent: %+v", d)
	}
}

func TestDaemonsInvisibleToLedger(t *testing.T) {
	r1 := NewCanonicalRecorder(Options{EpochEvents: 16})
	driveModel(t, r1, 7, 100, false)
	r2 := NewCanonicalRecorder(Options{EpochEvents: 16})
	driveModel(t, r2, 7, 100, true)
	l1, l2 := r1.Finalize(), r2.Finalize()
	if l1.ChainHead != l2.ChainHead {
		t.Fatalf("daemon riders changed the chain head: %s vs %s", l1.ChainHead, l2.ChainHead)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	r1 := NewCanonicalRecorder(Options{EpochEvents: 16})
	driveModel(t, r1, 7, 200, false)
	r2 := NewCanonicalRecorder(Options{EpochEvents: 16})
	driveModel(t, r2, 8, 200, false)
	l1, l2 := r1.Finalize(), r2.Finalize()
	d := Compare(l1, l2)
	if d.Identical {
		t.Fatal("different seeds reported identical")
	}
	if !d.Comparable {
		t.Fatalf("expected comparable diff, got %+v", d)
	}
}

// TestEpochBinarySearchLocalization forces a divergence at a known pop and
// checks Compare finds exactly the containing epoch and CompareWindows the
// exact pop and seq.
func TestEpochBinarySearchLocalization(t *testing.T) {
	const epoch = 8
	const total = 100
	const divergeAt = 57 // pop index where run B goes off-script

	run := func(perturb bool, winFrom, winTo uint64) *Ledger {
		rec := NewCanonicalRecorder(Options{EpochEvents: epoch})
		rec.SetWindow(winFrom, winTo)
		eng := sim.NewEngine(1)
		tag := eng.Tag("comp")
		var step func(i int)
		step = func(i int) {
			if i >= total {
				return
			}
			d := sim.Nanosecond
			if perturb && i == divergeAt {
				d = 2 * sim.Nanosecond // timestamp shifts from this pop on
			}
			tag.Schedule(d, func() { step(i + 1) })
		}
		rec.Attach(eng)
		eng.Schedule(0, func() { step(0) })
		eng.Run()
		return rec.Finalize()
	}

	la := run(false, 0, 0)
	lb := run(true, 0, 0)
	d := Compare(la, lb)
	if d.Identical {
		t.Fatal("perturbed run reported identical")
	}
	// Pop divergeAt+1 carries the shifted timestamp (the perturbed delay is
	// scheduled BY pop divergeAt); it lives in epoch (divergeAt+1)/epoch.
	wantEpoch := (divergeAt + 1) / epoch
	if d.FirstDivergentEpoch != wantEpoch {
		t.Fatalf("first divergent epoch = %d, want %d (reason %q)", d.FirstDivergentEpoch, wantEpoch, d.Reason)
	}
	if d.FromPop > divergeAt+1 || d.ToPop <= divergeAt+1 {
		t.Fatalf("window [%d,%d) does not cover divergent pop %d", d.FromPop, d.ToPop, divergeAt+1)
	}

	// Replay both runs with a window over the divergent epoch.
	wa := run(false, d.FromPop, d.ToPop)
	wb := run(true, d.FromPop, d.ToPop)
	div, err := CompareWindows(wa.Window, wb.Window)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("window comparison found no divergence")
	}
	if div.Pop != divergeAt+1 {
		t.Fatalf("window pinned pop %d, want %d", div.Pop, divergeAt+1)
	}
	if div.A == nil || div.B == nil || div.A.TimePS == div.B.TimePS {
		t.Fatalf("expected differing timestamps at divergence, got %+v", div)
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	rec := NewCanonicalRecorder(Options{EpochEvents: 16, Run: &RunSpec{Motif: "sweep3d", Transport: "rvma", Seed: 7}})
	rec.SetWindow(0, 4)
	driveModel(t, rec, 7, 50, false)
	l := rec.Finalize()

	path := filepath.Join(t.TempDir(), "run.ledger.json")
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ChainHead != l.ChainHead || got.Events != l.Events {
		t.Fatalf("round trip changed ledger: %+v vs %+v", got, l)
	}
	if got.Run == nil || got.Run.Motif != "sweep3d" {
		t.Fatalf("run spec lost in round trip: %+v", got.Run)
	}
	if got.Window == nil || len(got.Window.Records) != 4 {
		t.Fatalf("window lost in round trip: %+v", got.Window)
	}
	if d := Compare(l, got); !d.Identical {
		t.Fatalf("round trip not identical: %+v", d)
	}
}

func TestLabelsRecorded(t *testing.T) {
	rec := NewCanonicalRecorder(Options{EpochEvents: 16})
	driveModel(t, rec, 7, 20, false)
	l := rec.Finalize()
	joined := strings.Join(l.Labels, ",")
	if !strings.Contains(joined, "alpha") || !strings.Contains(joined, "beta") {
		t.Fatalf("labels table missing components: %v", l.Labels)
	}
}

func TestEpochSizeMismatchNotComparable(t *testing.T) {
	r1 := NewCanonicalRecorder(Options{EpochEvents: 16})
	driveModel(t, r1, 7, 50, false)
	r2 := NewCanonicalRecorder(Options{EpochEvents: 32})
	driveModel(t, r2, 7, 50, false)
	d := Compare(r1.Finalize(), r2.Finalize())
	if d.Comparable || d.Identical {
		t.Fatalf("mismatched epoch sizes must be incomparable: %+v", d)
	}
}

func TestTruncatedRunDivergesAtTail(t *testing.T) {
	r1 := NewCanonicalRecorder(Options{EpochEvents: 8})
	driveModel(t, r1, 7, 100, false)
	r2 := NewCanonicalRecorder(Options{EpochEvents: 8})
	driveModel(t, r2, 7, 60, false)
	l1, l2 := r1.Finalize(), r2.Finalize()
	d := Compare(l1, l2)
	if d.Identical {
		t.Fatal("truncated run reported identical")
	}
	// The shorter run's epochs are a prefix except its partial tail epoch,
	// whose digest differs from the full run's same-index epoch; either
	// way FromPop must be at or before the shorter run's event count.
	if d.FromPop > l2.Events {
		t.Fatalf("FromPop %d past shorter run end %d", d.FromPop, l2.Events)
	}
}

func TestProfileReport(t *testing.T) {
	rec := NewCanonicalRecorder(Options{EpochEvents: 16, Profile: true})
	driveModel(t, rec, 7, 100, false)
	rec.Finalize()
	rep := rec.Profile()
	if rep == nil {
		t.Fatal("profile enabled but report nil")
	}
	if rep.TotalEvents == 0 {
		t.Fatal("profile counted no events")
	}
	var share float64
	seen := map[string]bool{}
	for _, c := range rep.Components {
		share += c.Share
		seen[c.Label] = true
	}
	if !seen["alpha"] || !seen["beta"] {
		t.Fatalf("profile missing components: %+v", rep.Components)
	}
	if rep.TotalHostNS > 0 && (share < 0.99 || share > 1.01) {
		t.Fatalf("shares sum to %f, want ~1", share)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "label,events,host_ns") {
		t.Fatalf("unexpected CSV header: %q", buf.String())
	}
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestProfileDoesNotChangeChain(t *testing.T) {
	r1 := NewCanonicalRecorder(Options{EpochEvents: 16})
	driveModel(t, r1, 7, 100, false)
	r2 := NewCanonicalRecorder(Options{EpochEvents: 16, Profile: true})
	driveModel(t, r2, 7, 100, false)
	if a, b := r1.Finalize().ChainHead, r2.Finalize().ChainHead; a != b {
		t.Fatalf("profiling changed the chain head: %s vs %s", a, b)
	}
}

// TestObserverOnOffByteIdentical checks the engine's own outputs are not
// perturbed by attaching a recorder.
func TestObserverOnOffByteIdentical(t *testing.T) {
	e1 := driveModel(t, nil, 7, 100, false)
	rec := NewCanonicalRecorder(Options{})
	e2 := driveModel(t, rec, 7, 100, false)
	if e1.Now() != e2.Now() || e1.EventsExecuted() != e2.EventsExecuted() {
		t.Fatalf("observer changed run results: now %v vs %v, events %d vs %d",
			e1.Now(), e2.Now(), e1.EventsExecuted(), e2.EventsExecuted())
	}
	rec.Finalize() // folds the last timestamp's batch
	if rec.Events() != e2.EventsExecuted() {
		t.Fatalf("recorder saw %d pops, engine executed %d", rec.Events(), e2.EventsExecuted())
	}
}
