//go:build simdebug

package sim

import (
	"strings"
	"testing"
)

// These tests only build under the simdebug tag; they prove the
// invariant layer detects corruption rather than merely existing.

func mustPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a simdebug panic containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic = %v, want message containing %q", r, substr)
		}
	}()
	fn()
}

func TestAssertfPanicsWithPrefix(t *testing.T) {
	mustPanic(t, "simdebug: invariant violated: count 3", func() {
		Assertf(false, "count %d", 3)
	})
	Assertf(true, "never evaluated")
}

func TestDebugCatchesClockCorruption(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10*Nanosecond, func() {})
	// Force the clock past the pending event: the pop check must see
	// causality running backward.
	e.now = 20 * Nanosecond
	mustPanic(t, "precedes engine clock", func() { e.Step() })
}

func TestDebugCatchesHeapCorruption(t *testing.T) {
	// Two digits of level 1 and one of level 2, with the last pop at 0.
	times := []Time{0x10, 0x20, 0x300}
	swaps := []struct {
		name string
		a, b Time // swap the buckets holding these times
	}{
		{"buckets on different levels", 0x10, 0x300},
		{"two digits of one level", 0x10, 0x20},
	}
	for _, sw := range swaps {
		t.Run(sw.name, func(t *testing.T) {
			e := NewEngine(1)
			for _, at := range times {
				e.Schedule(at, func() {})
			}
			// Swap the contents of two occupied buckets: every event is
			// still queued and counted, but now sits in a bucket its time
			// does not select, so the structural sweep must notice.
			q := &e.queue
			a, b := bucketOf(sw.a, 0), bucketOf(sw.b, 0)
			if q.fill[a] == 0 || q.fill[b] == 0 || q.buckets[a].head == nil || q.buckets[b].head == nil || a == b {
				t.Fatalf("buckets %d and %d are not two occupied buckets", a, b)
			}
			q.buckets[a], q.buckets[b] = q.buckets[b], q.buckets[a]
			mustPanic(t, "radix heap", func() { e.debugVerifyHeap() })
		})
	}
}

func TestDebugEnabledUnderTag(t *testing.T) {
	if !DebugEnabled {
		t.Fatal("DebugEnabled must be true when built with -tags simdebug")
	}
}

// A step record whose step runs again while it is still on the stack,
// as a continuation fired from inside the step would make it, is two
// copies of one rank; the guard catches it.
func TestStepGuardCatchesReentry(t *testing.T) {
	var g StepGuard
	g.Enter("rank")
	g.Leave()
	g.Enter("rank") // a step entered after it returned is fine
	mustPanic(t, "rank: step entered while already on the stack", func() {
		g.Enter("rank")
	})
}
