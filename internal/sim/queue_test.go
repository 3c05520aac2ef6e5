package sim

import (
	"fmt"
	"slices"
	"testing"
)

// popKey is one popped model event's place in the queue order, with the
// model seq watermark at its pop: every model event with a lower seq had
// been scheduled by then.
type popKey struct {
	seq, mark uint64
	at        Time
	pri       int
}

// orderLog records every model pop and fails the test on the first one
// that sorts before its predecessor under (time, priority, seq), the order
// every golden chain head depends on, although it was already queued when
// the predecessor popped.
type orderLog struct {
	t    *testing.T
	e    *Engine
	pops []popKey
}

func (l *orderLog) ObserveExec(seq uint64, at Time, priority int, label Label) {
	k := popKey{seq: seq, mark: 2 * l.e.seq, at: at, pri: priority}
	if n := len(l.pops); n > 0 {
		p := l.pops[n-1]
		if seq < p.mark && eventLess(&event{at: at, priority: priority, seq: seq}, &event{at: p.at, priority: p.pri, seq: p.seq}) {
			l.t.Fatalf("pop %d (t=%v pri=%d seq=%d) sorts before pop %d (t=%v pri=%d seq=%d), which popped while it was queued",
				n, at, priority, seq, n-1, p.at, p.pri, p.seq)
		}
	}
	l.pops = append(l.pops, k)
}

// newOrderedEngine returns an engine whose model pops are checked by an
// orderLog.
func newOrderedEngine(t *testing.T) (*Engine, *orderLog) {
	e := NewEngine(1)
	log := &orderLog{t: t, e: e}
	e.SetExecObserver(log)
	return e, log
}

// atExactly schedules a model event at t that checks it runs at exactly t.
func atExactly(t *testing.T, e *Engine, at Time, pri int) {
	e.atModel(at, pri, NoLabel, Func(func() {
		if e.Now() != at {
			t.Fatalf("event for %v ran at %v", at, e.Now())
		}
	}))
}

// popTo advances the queue's last pop to t: it runs an event at t.
func popTo(e *Engine, t Time) {
	e.At(t, func() {})
	e.RunUntil(t)
	if e.queue.last != t {
		panic(fmt.Sprintf("last pop %v, want %v", e.queue.last, t))
	}
}

// occupied returns the queue's non-empty buckets, in index order.
func occupied(q *eventQueue) []uint {
	var ks []uint
	for k := range q.buckets {
		if q.occ[k/64]&(1<<(k%64)) != 0 {
			ks = append(ks, uint(k))
		}
	}
	return ks
}

// levels returns the distinct levels of buckets ks.
func levels(ks []uint) []uint {
	var ls []uint
	for _, k := range ks {
		if l := k / digits; !slices.Contains(ls, l) {
			ls = append(ls, l)
		}
	}
	return ls
}

// TestQueueOrderAcrossBuckets drives the radix heap through every level,
// several digits of one level, the edges of a digit, a refile that
// scatters over levels, a rebase, and every path where its last-pop time
// and the engine clock part ways. It checks that pops keep the exact
// (time, priority, seq) order and that each event sits in the bucket its
// (level, digit) selects (debugVerifyHeap, which runs in every build).
func TestQueueOrderAcrossBuckets(t *testing.T) {
	t.Run("every level", func(t *testing.T) {
		e, log := newOrderedEngine(t)
		// A last-pop time with mixed bits, so a carry past it flips many.
		const base = Time(0x0555_5555_5555_5555)
		popTo(e, base)
		atExactly(t, e, base, 0) // b0
		pushed := 2              // with the event that set the last pop time
		for b := 0; b < 62; b++ {
			for _, off := range []Time{-1, 0, 1} {
				atExactly(t, e, base+Time(1)<<b+off, b%3-1)
				pushed++
			}
		}
		if got := levels(occupied(&e.queue)); len(got) != numBuckets/digits {
			t.Fatalf("events on levels %v, want all %d", got, numBuckets/digits)
		}
		e.debugVerifyHeap()
		e.Run()
		if got := len(log.pops); got != pushed {
			t.Fatalf("popped %d events, want %d", got, pushed)
		}
		if e.Now() != base+Time(1)<<61+1 {
			t.Fatalf("final time %v", e.Now())
		}
	})

	t.Run("digits of one level", func(t *testing.T) {
		e, log := newOrderedEngine(t)
		const last = Time(0x3_4567)
		popTo(e, last)
		// Level 2 is the digit 0x5 of last: every larger value of it, in
		// an order that is not time order, twice with ties.
		for _, d := range []Time{0xf, 0x6, 0xa, 0x7, 0xe, 0x6, 0xc} {
			at := last&^0xfff | d<<8 | Time(d)
			atExactly(t, e, at, int(d%3))
			atExactly(t, e, at, -1)
		}
		ks := occupied(&e.queue)
		if ls := levels(ks); len(ks) < 3 || len(ls) != 1 || ls[0] != 2 {
			t.Fatalf("buckets %v, want 3 or more on level 2 alone", ks)
		}
		e.debugVerifyHeap()
		e.Run()
		if got := len(log.pops); got != 15 {
			t.Fatalf("popped %d events, want 15", got)
		}
	})

	t.Run("lowest and highest bit of each digit", func(t *testing.T) {
		e, log := newOrderedEngine(t)
		// Each digit of last is 0x6 (0110): its lowest and highest bit are
		// clear, so setting either one makes a time that differs from last
		// in that bit alone.
		const last = Time(0x0666_6666_6666_6666)
		popTo(e, last)
		pushed := 1
		for l := uint(0); l < numBuckets/digits; l++ {
			for _, b := range []uint{l * digitBits, l*digitBits + digitBits - 1} {
				if b >= 63 {
					continue // the sign bit
				}
				at := last | Time(1)<<b
				if k := bucketOf(at, last); k/digits != l {
					t.Fatalf("time %#x, last %#x: bucket %d is on level %d, want %d", at, last, k, k/digits, l)
				}
				atExactly(t, e, at, 0)
				pushed++
			}
		}
		e.debugVerifyHeap()
		e.Run()
		if got := len(log.pops); got != pushed {
			t.Fatalf("popped %d events, want %d", got, pushed)
		}
	})

	t.Run("refile scatters into b0 and two lower levels", func(t *testing.T) {
		e, log := newOrderedEngine(t)
		const last = Time(0x1000)
		popTo(e, last)
		// One bucket on level 2 (digit 3): two ties at its earliest time
		// and times that differ from that in digit 1 and in digit 0.
		const m = Time(0x1300)
		for _, ev := range []struct {
			at  Time
			pri int
		}{{m + 0x10, 0}, {m, 1}, {m + 0x1, 0}, {m + 0xf0, 0}, {m, 0}, {m + 0xf, 0}} {
			atExactly(t, e, ev.at, ev.pri)
		}
		if ks := occupied(&e.queue); len(ks) != 1 || ks[0] != bucketOf(m, last) || ks[0]/digits != 2 {
			t.Fatalf("buckets %v, want the one level-2 bucket %d", ks, bucketOf(m, last))
		}
		e.Step() // refiles, then pops the tie with priority 0
		q := &e.queue
		if len(q.b0) != 1 {
			t.Fatalf("b0 holds %d events after the refile, want the other tie", len(q.b0))
		}
		if ls := levels(occupied(q)); !slices.Equal(ls, []uint{0, 1}) {
			t.Fatalf("refile left events on levels %v, want [0 1]", ls)
		}
		e.debugVerifyHeap()
		e.Run()
		if got := len(log.pops); got != 7 {
			t.Fatalf("popped %d events, want 7", got)
		}
	})

	t.Run("rebase across levels", func(t *testing.T) {
		e, log := newOrderedEngine(t)
		const last = Time(0x10_0000)
		popTo(e, last)
		for _, off := range []Time{0x3, 0x40, 0x500, 0x6000, 0x7_0000, 0x80_0000} {
			atExactly(t, e, last+off, 0)
		}
		before := occupied(&e.queue)
		// The clock moves back behind the last pop, as a shard's final
		// window makes it: every queued event is pushed again against
		// the new base, most onto a higher level.
		const base = Time(0xf_fff0)
		e.syncClock(base)
		if e.queue.last != base {
			t.Fatalf("last pop %v after the rebase, want %v", e.queue.last, base)
		}
		after := occupied(&e.queue)
		if slices.Equal(before, after) {
			t.Fatalf("the rebase left every event in its bucket: %v", after)
		}
		e.debugVerifyHeap()
		// Events between the new base and the old last pop run first.
		atExactly(t, e, base+1, 0)
		atExactly(t, e, base+0xf, 0)
		atExactly(t, e, last, 0)
		atExactly(t, e, last+0x40, -1)
		e.debugVerifyHeap()
		e.Run()
		if got := len(log.pops); got != 11 {
			t.Fatalf("popped %d events, want 11", got)
		}
	})

	t.Run("one bucket over several chunks", func(t *testing.T) {
		e, log := newOrderedEngine(t)
		// 3*chunkCap+1 distinct times in [2^20, 2^21): one bucket, four
		// chunks, the newest holding a lone event.
		const n = 3*chunkCap + 1
		for i := 0; i < n; i++ {
			atExactly(t, e, 1<<20+Time(i*7919%n)*37, 0)
		}
		e.Run()
		if got := len(log.pops); got != n {
			t.Fatalf("popped %d events, want %d", got, n)
		}
	})

	t.Run("ties at one time", func(t *testing.T) {
		e, log := newOrderedEngine(t)
		const at = 3 * Microsecond
		pris := []int{0, -1 << 40, 7, -(1 + 9_702*3), 0, 1 << 20, -2, -1 << 40, 7, 0, -(1 + 9_702*3)}
		for _, p := range pris {
			atExactly(t, e, at, p)
		}
		// Ties pushed while bucket 0 is being drained join it in order.
		e.atModel(at, -5, NoLabel, Func(func() {
			for _, p := range []int{-6, -5, 100, -1 << 41} {
				atExactly(t, e, at, p)
			}
		}))
		e.Schedule(at+1, func() {})
		e.Run()
		if got, want := len(log.pops), len(pris)+1+4+1; got != want {
			t.Fatalf("popped %d events, want %d", got, want)
		}
	})

	t.Run("gap between window limit and head", func(t *testing.T) {
		e, log := newOrderedEngine(t)
		atExactly(t, e, 100*Nanosecond, 0)
		atExactly(t, e, 1000*Nanosecond, 0)
		atExactly(t, e, 5000*Nanosecond, 0)
		e.RunUntil(500 * Nanosecond)
		// The peek cached 1000 ns as the head without popping it; the next
		// pushes land behind it, one in a lower bucket and one at the clock.
		if got := e.NextEventTime(); got != 1000*Nanosecond {
			t.Fatalf("NextEventTime = %v, want 1us", got)
		}
		atExactly(t, e, 600*Nanosecond, 0)
		if got := e.NextEventTime(); got != 600*Nanosecond {
			t.Fatalf("NextEventTime after a push below the head = %v, want 600ns", got)
		}
		atExactly(t, e, 500*Nanosecond, 1)
		atExactly(t, e, 500*Nanosecond, -1)
		if got := e.NextEventTime(); got != 500*Nanosecond {
			t.Fatalf("NextEventTime after a push at the clock = %v, want 500ns", got)
		}
		// A shard window stops short of the head the same way; a barrier
		// delivery then lands between its limit and the head.
		e.runShardWindow(2000 * Nanosecond)
		if e.Now() != 1000*Nanosecond {
			t.Fatalf("window ended at %v, want 1us", e.Now())
		}
		e.at(3000*Nanosecond, -3, NoLabel, Func(func() {}), false)
		e.at(2500*Nanosecond, 2, NoLabel, Func(func() {}), false)
		e.Run()
		if got := len(log.pops); got != 8 {
			t.Fatalf("popped %d events, want 8", got)
		}
	})

	t.Run("schedule after a shard run's daemon tail", func(t *testing.T) {
		const lookahead = 100
		g := NewShardGroup(1, 1, lookahead)
		e := g.Shard(0)
		log := &orderLog{t: t, e: e}
		e.SetExecObserver(log)
		var times []Time // every model pop and daemon tick, in execution order
		var tick func()
		tick = func() {
			times = append(times, e.Now())
			e.ScheduleDaemonP(10, relayTickPri, tick)
		}
		e.ScheduleDaemonP(10, relayTickPri, tick)
		e.Schedule(950, func() { times = append(times, e.Now()) })
		if end := g.Run(); end != 950 {
			t.Fatalf("first run ended at %v, want 950ps", end)
		}
		// The final window ran ticks past the last model event; syncClock
		// moved the clock back behind them and rebased the queue.
		if tail := times[len(times)-1]; tail <= 950 {
			t.Fatalf("no daemon tick ran past the last model event: last execution at %v", tail)
		}
		if e.queue.last != 950 {
			t.Fatalf("queue last pop %v after syncClock(950ps)", e.queue.last)
		}
		first := len(times)
		e.Schedule(1, func() { times = append(times, e.Now()) })
		e.Schedule(150, func() { times = append(times, e.Now()) })
		if end := g.Run(); end != 1100 {
			t.Fatalf("second run ended at %v, want 1100ps", end)
		}
		for i := first + 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				t.Fatalf("execution %d at %v after execution %d at %v: %v", i, times[i], i-1, times[i-1], times[first:])
			}
		}
		if !slices.Contains(times[first:], 951) || !slices.Contains(times[first:], 1100) {
			t.Fatalf("model events after the rebase did not run at 951ps and 1100ps: %v", times[first:])
		}
	})
}

// TestRunUntilBehindClockPanics pins that the clock never moves backward:
// a RunUntil limit behind the clock fails fast, like At in the past.
func TestRunUntilBehindClockPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(20*Nanosecond, func() {})
	if got := e.RunUntil(10 * Nanosecond); got != 10*Nanosecond {
		t.Fatalf("RunUntil(10ns) = %v", got)
	}
	defer func() {
		want := fmt.Sprintf("sim: RunUntil limit %v before now %v", 5*Nanosecond, 10*Nanosecond)
		if got := recover(); got != want {
			t.Fatalf("RunUntil behind the clock panicked with %v, want %q", got, want)
		}
	}()
	e.RunUntil(5 * Nanosecond)
}
