//go:build simdebug

package sim

import (
	"math/bits"
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
	e := NewEngine(1)
	for i := 0; i < 8; i++ {
		e.Schedule(Time(1)<<(4*i), func() {})
	}
	// Swap the contents of two occupied buckets: every event is still
	// queued and counted, but now sits in a bucket its time does not
	// select, so the structural sweep must notice the broken order.
	q := &e.queue
	lo := bits.TrailingZeros64(q.mask)
	hi := 63 - bits.LeadingZeros64(q.mask)
	if lo == hi {
		t.Fatalf("want two occupied buckets, mask %b", q.mask)
	}
	q.buckets[lo], q.buckets[hi] = q.buckets[hi], q.buckets[lo]
	mustPanic(t, "heap", func() { e.debugVerifyHeap() })
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
