//go:build simdebug

package sim

import "testing"

// These tests prove the shard-causality invariant layer detects broken
// conservatism rather than merely existing: each one constructs a
// violation the release build would silently turn into divergence and
// checks the simdebug build refuses to run it.

// TestDebugCatchesBrokenLookahead is the headline causality test: the
// model's cross-shard sends honor the real 40ps link latency, but the
// group is told (via the CI canary's UnsafeScaleLookahead hook) that
// 160ps is safe. The first in-window send must trip the sender-side
// lookahead assert — in a release build the same run would let shard 1
// execute past the unreceived handoff and diverge from the single-heap
// reference.
func TestDebugCatchesBrokenLookahead(t *testing.T) {
	const realLatency = Time(40)
	g := NewShardGroup(1, 2, realLatency)
	g.UnsafeScaleLookahead(4)
	dst := g.Shard(1).Tag("rx")
	g.Shard(0).Tag("tx").AtP(0, -1, func() {
		// Sent with the honest latency: legal under lookahead=40,
		// a causality violation under the inflated claim of 160.
		g.Post(0, 1, g.Shard(0).Now()+realLatency, -2, dst.Label(), Func(func() {}))
	})
	mustPanic(t, "violates lookahead", func() { g.Run() })
}

// TestDebugCatchesLateHandoff exercises the receiver-side defense in
// depth: a handoff that was legal when posted but arrives behind the
// destination clock (here forced by corrupting the clock directly, the
// only way to get past the sender-side assert) must be refused at
// delivery.
func TestDebugCatchesLateHandoff(t *testing.T) {
	g := NewShardGroup(1, 2, 40)
	lbl := g.Shard(1).Tag("rx").Label()
	g.Post(0, 1, 100, -1, lbl, Func(func() {})) // legal: sender at 0, lookahead 40
	g.shards[1].now = 200                       // shard 1 "ran past" the handoff
	mustPanic(t, "arrives behind destination shard", func() { g.deliver() })
}

// TestDebugCatchesSafeHorizonOverrun checks the barrier-side invariant:
// no shard clock may pass the round's window limit, however it got
// there. A corrupted idle shard sitting beyond the limit must be caught
// at the first barrier.
func TestDebugCatchesSafeHorizonOverrun(t *testing.T) {
	g := NewShardGroup(1, 2, 40)
	g.Shard(1).Tag("work").AtP(5, -1, func() {})
	g.shards[0].now = Time(1) << 40 // far past any window this run computes
	mustPanic(t, "safe-horizon violation", func() { g.Run() })
}

// TestDebugCatchesBadPostTargets covers the cheap structural asserts on
// Post: out-of-range shard ids and same-shard posts into the past.
func TestDebugCatchesBadPostTargets(t *testing.T) {
	g := NewShardGroup(1, 2, 40)
	lbl := g.Shard(0).Tag("x").Label()
	mustPanic(t, "bad shard ids", func() {
		g.Post(0, 7, 100, -1, lbl, Func(func() {}))
	})
	g.shards[0].now = 50
	mustPanic(t, "same-shard post at", func() {
		g.Post(0, 0, 10, -1, lbl, Func(func() {}))
	})
}
