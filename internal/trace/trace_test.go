package trace

import (
	"strings"
	"testing"

	"rvma/internal/sim"
)

func TestEventRecording(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng, 10)
	tr.Enable(CatPacket)
	eng.Schedule(sim.Microsecond, func() { tr.Eventf(CatPacket, "hello %d", 42) })
	eng.Schedule(sim.Microsecond, func() { tr.Eventf(CatNIC, "suppressed") })
	eng.Run()
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1 (disabled category dropped)", len(evs))
	}
	if evs[0].At != sim.Microsecond || evs[0].Msg != "hello 42" || evs[0].Cat != CatPacket {
		t.Fatalf("event = %+v", evs[0])
	}
	if tr.Suppressed != 1 {
		t.Fatalf("suppressed = %d, want 1", tr.Suppressed)
	}
	if tr.Overwritten != 0 {
		t.Fatalf("overwritten = %d, want 0 (ring never filled)", tr.Overwritten)
	}
}

func TestEnableAll(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng, 4)
	tr.EnableAll()
	tr.Eventf(CatApp, "x")
	tr.Eventf(CatRVMA, "y")
	if len(tr.Events()) != 2 {
		t.Fatal("EnableAll should record every category")
	}
}

func TestRingWraps(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng, 3)
	tr.Enable(CatApp)
	for i := 0; i < 5; i++ {
		i := i
		eng.Schedule(sim.Time(i), func() { tr.Eventf(CatApp, "e%d", i) })
	}
	eng.Run()
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("ring should hold 3, got %d", len(evs))
	}
	// Oldest two dropped; order preserved.
	if evs[0].Msg != "e2" || evs[1].Msg != "e3" || evs[2].Msg != "e4" {
		t.Fatalf("wrapped order wrong: %v", evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("wrapped events out of chronological order: %v", evs)
		}
	}
	if tr.Overwritten != 2 {
		t.Fatalf("overwritten = %d, want 2", tr.Overwritten)
	}
	if tr.Suppressed != 0 {
		t.Fatalf("suppressed = %d, want 0", tr.Suppressed)
	}
}

func TestDumpReportsSuppressedAndOverwritten(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng, 2)
	tr.Enable(CatApp)
	tr.Eventf(CatNIC, "suppressed")
	for i := 0; i < 3; i++ {
		tr.Eventf(CatApp, "e%d", i)
	}
	var sb strings.Builder
	tr.Dump(&sb)
	out := sb.String()
	if !strings.Contains(out, "suppressed (category disabled): 1") ||
		!strings.Contains(out, "overwritten (ring full): 1") {
		t.Fatalf("dump missing loss accounting:\n%s", out)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Eventf(CatApp, "x")
	tr.Dump(&strings.Builder{})
	if tr.Events() != nil || tr.Enabled(CatApp) {
		t.Fatal("nil tracer must be inert")
	}
}

func TestDumpPrintsRing(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng, 4)
	tr.Enable(CatApp)
	eng.Schedule(sim.Microsecond, func() { tr.Eventf(CatApp, "mark") })
	eng.Run()
	var sb strings.Builder
	tr.Dump(&sb)
	if want := "events (1 recorded):\n  [1.000us] app: mark\n"; sb.String() != want {
		t.Fatalf("dump = %q, want %q", sb.String(), want)
	}
}
