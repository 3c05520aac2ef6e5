package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ps"},
		{500 * Picosecond, "500ps"},
		{Nanosecond, "1.000ns"},
		{1500 * Nanosecond, "1.500us"},
		{Microsecond, "1.000us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
		{MaxTime, "never"},
		{-Nanosecond, "-1.000ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestSerializationTime(t *testing.T) {
	// 1000 bytes at 100 Gbps = 8000 bits / 100e9 bps = 80 ns.
	if got := SerializationTime(1000, 100); got != 80*Nanosecond {
		t.Errorf("SerializationTime(1000, 100) = %v, want 80ns", got)
	}
	// One byte at 2 Tbps = 4 ps.
	if got := SerializationTime(1, 2000); got != 4*Picosecond {
		t.Errorf("SerializationTime(1, 2000) = %v, want 4ps", got)
	}
	if got := SerializationTime(0, 100); got != 0 {
		t.Errorf("zero bytes should serialize in zero time, got %v", got)
	}
	// Tiny payloads still consume at least one picosecond.
	if got := SerializationTime(1, 1e9); got != 1 {
		t.Errorf("sub-picosecond serialization should round up to 1ps, got %v", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	e.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	e.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30*Nanosecond {
		t.Fatalf("end time = %v, want 30ns", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events must run FIFO: order[%d] = %d", i, v)
		}
	}
}

func TestEnginePriority(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.ScheduleP(Nanosecond, 5, func() { order = append(order, "low") })
	e.ScheduleP(Nanosecond, -5, func() { order = append(order, "high") })
	e.Run()
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("priority order = %v", order)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.Schedule(Nanosecond, tick)
		}
	}
	e.Schedule(0, tick)
	end := e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if end != 9*Nanosecond {
		t.Fatalf("end = %v, want 9ns", end)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for _, d := range []Time{Nanosecond, Microsecond, Millisecond} {
		d := d
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	end := e.RunUntil(Microsecond)
	if end != Microsecond {
		t.Fatalf("RunUntil returned %v, want 1us", end)
	}
	if len(ran) != 2 {
		t.Fatalf("executed %d events before limit, want 2", len(ran))
	}
	e.Run()
	if len(ran) != 3 {
		t.Fatalf("remaining events did not run on resume: %v", ran)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay should panic")
		}
	}()
	//rvmalint:allow simtime -- deliberately negative to test the panic
	NewEngine(1).Schedule(-1, func() {})
}

func TestEngineAtPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past should panic")
			}
		}()
		e.At(Nanosecond, func() {})
	})
	e.Run()
}

// TestScheduleInPastMessages pins the fail-fast message of every absolute
// scheduling entry point: the labeled handles name both times exactly as
// Engine.At does.
func TestScheduleInPastMessages(t *testing.T) {
	e := NewEngine(1)
	tag := e.Tag("model")
	cases := []struct {
		name string
		at   func(Time)
	}{
		{"Engine.At", func(tm Time) { e.At(tm, func() {}) }},
		{"Tagged.At", func(tm Time) { tag.At(tm, func() {}) }},
		{"Tagged.AtP", func(tm Time) { tag.AtP(tm, -1, func() {}) }},
	}
	e.Schedule(10*Nanosecond, func() {
		for _, c := range cases {
			func() {
				defer func() {
					want := fmt.Sprintf("sim: schedule at %v before now %v", Nanosecond, 10*Nanosecond)
					if got := recover(); got != want {
						t.Errorf("%s in the past panicked with %v, want %q", c.name, got, want)
					}
				}()
				c.at(Nanosecond)
			}()
		}
	})
	e.Run()
}

// counter is a pointer handler: a component record that is its own
// event.
type counter struct{ n int }

func (c *counter) Fire() { c.n++ }

// TestEngineSteadyStateZeroAlloc is the kernel's allocation gate: once
// the event pool and the heap's backing array have grown, a schedule+pop
// allocates nothing, whether the event is a func, which Schedule wraps as
// a Func, a Func scheduled as a handler, or a pointer handler.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	if DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	e := NewEngine(1)
	tag := e.Tag("t")
	tick := func() {}
	var c counter
	// Keep some events queued so pops sift through a heap.
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i+2)*Millisecond, tick)
	}
	for _, tc := range []struct {
		name     string
		schedule func()
	}{
		{"func", func() { e.Schedule(Nanosecond, tick) }},
		{"sim.Func", func() { tag.ScheduleH(Nanosecond, Func(tick)) }},
		{"pointer handler", func() { tag.ScheduleH(Nanosecond, &c) }},
	} {
		schedulePop := func() {
			tc.schedule()
			e.Step()
		}
		if got := testing.AllocsPerRun(1000, schedulePop); got != 0 {
			t.Errorf("%s: schedule+pop: %v allocs per run, want 0", tc.name, got)
		}
	}
	if c.n != 1001 {
		t.Errorf("the pointer handler fired %d times, want 1001", c.n)
	}
}

// TestEnginePoolMissAllocatesInChunks: an engine whose free list is empty
// carves new events from chunks of SlabChunk, so scheduling n events at
// once (a run climbing to its peak of pending events) makes about
// n/SlabChunk allocations, not n. The queue's own chunks and bucket-0
// growth add O(log n) more.
func TestEnginePoolMissAllocatesInChunks(t *testing.T) {
	if DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	const n = 64 * SlabChunk
	tick := func() {}
	allocs := testing.AllocsPerRun(10, func() {
		e := NewEngine(1)
		for i := 0; i < n; i++ {
			e.Schedule(Time(i+1)*Nanosecond, tick)
		}
	})
	// NewEngine's engine and RNG, the queue's chunks (at most one per
	// chunkCap events; they come chunkSlab to an allocation) and the rest
	// are the O(1) + O(n/chunkCap) beside the events.
	if limit := float64(n/SlabChunk + n/chunkCap + 16); allocs > limit {
		t.Errorf("%d events from an empty pool: %v allocs, want at most %v", n, allocs, limit)
	}
	t.Logf("%d events from an empty pool: %v allocs", n, allocs)
}

// DropPools between runs empties the free list and keeps queued events
// in order: the run resumes exactly where it stopped. After a drained
// run it leaves the queue holding no memory: no bucket keeps a chunk,
// and no spare chunk or bucket-0 array is left.
func TestEngineDropPools(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	record := func() { got = append(got, e.Now()) }
	for i := 1; i <= 300; i++ {
		e.Schedule(Time(i*i)*Nanosecond, record)
	}
	e.RunUntil(1000 * Nanosecond)
	if len(e.free) == 0 {
		t.Fatal("the run left no free events to drop")
	}
	e.DropPools()
	if n := len(e.free); n != 0 {
		t.Fatalf("%d free events after DropPools", n)
	}
	e.Schedule(0, record)
	e.Run()
	if len(got) != 301 {
		t.Fatalf("ran %d events, want 301", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("event %d at %v ran after one at %v", i, got[i], got[i-1])
		}
	}
	e.DropPools()
	q := &e.queue
	for k := range q.buckets {
		if q.buckets[k].head != nil {
			t.Errorf("bucket %d (level %d, digit %d) keeps a chunk after a drained run and DropPools", k, k/digits, k%digits)
		}
	}
	if q.free != nil || q.slab != nil || q.b0 != nil {
		t.Errorf("queue keeps spare memory after DropPools: free list %v, slab %d chunks, b0 capacity %d",
			q.free != nil, len(q.slab), cap(q.b0))
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Schedule(Nanosecond, func() { count++ })
	e.Schedule(2*Nanosecond, func() { count++ })
	if !e.Step() || count != 1 {
		t.Fatalf("first Step: count = %d", count)
	}
	if !e.Step() || count != 2 {
		t.Fatalf("second Step: count = %d", count)
	}
	if e.Step() {
		t.Fatal("Step on empty queue should return false")
	}
}

func TestEngineCounters(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d before the run, want 7", e.Pending())
	}
	e.Run()
	if e.EventsExecuted() != 7 {
		t.Fatalf("executed = %d, want 7", e.EventsExecuted())
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

func TestNextEventTime(t *testing.T) {
	e := NewEngine(1)
	if e.NextEventTime() != MaxTime {
		t.Fatal("empty queue should report MaxTime")
	}
	e.Schedule(5*Nanosecond, func() {})
	e.Schedule(9*Nanosecond, func() {})
	if e.NextEventTime() != 5*Nanosecond {
		t.Fatalf("next = %v, want 5ns", e.NextEventTime())
	}
}

// Property: for any set of non-negative delays, the engine executes events
// in non-decreasing time order and ends at the max delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(42)
		var seen []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.Schedule(d, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		if len(seen) != len(delays) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two engines with the same seed produce identical RNG streams.
func TestRNGDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 100; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) out of range: %d", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < 9.9 || mean > 10.1 {
		t.Errorf("sample mean = %v, want ~10", mean)
	}
	if variance < 3.6 || variance > 4.4 {
		t.Errorf("sample variance = %v, want ~4", variance)
	}
}

func TestRNGJitter(t *testing.T) {
	r := NewRNG(3)
	base := 100 * Nanosecond
	for i := 0; i < 1000; i++ {
		v := r.Jitter(base, 0.1)
		if v < 90*Nanosecond || v > 110*Nanosecond {
			t.Fatalf("jitter out of +-10%% band: %v", v)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("zero-fraction jitter must be identity")
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine(1)
	var r Resource
	e.Schedule(0, func() {
		end1 := r.Acquire(e, 10*Nanosecond)
		end2 := r.Acquire(e, 10*Nanosecond)
		if end1 != 10*Nanosecond {
			t.Errorf("first acquisition ends at %v, want 10ns", end1)
		}
		if end2 != 20*Nanosecond {
			t.Errorf("second acquisition must queue: ends at %v, want 20ns", end2)
		}
	})
	e.Run()
	if r.Uses() != 2 || r.BusyTime() != 20*Nanosecond {
		t.Fatalf("uses = %d busy = %v", r.Uses(), r.BusyTime())
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEngine(1)
	var r Resource
	e.Schedule(0, func() { r.Acquire(e, 5*Nanosecond) })
	e.Schedule(100*Nanosecond, func() {
		end := r.Acquire(e, 5*Nanosecond)
		if end != 105*Nanosecond {
			t.Errorf("after idle gap, acquisition ends at %v, want 105ns", end)
		}
		if got := r.Backlog(e); got != 5*Nanosecond {
			t.Errorf("backlog = %v, want 5ns", got)
		}
	})
	e.Run()
}

func TestResourceAcquireAt(t *testing.T) {
	var r Resource
	end := r.AcquireAt(50*Nanosecond, 10*Nanosecond)
	if end != 60*Nanosecond {
		t.Fatalf("end = %v, want 60ns", end)
	}
	// A later request arriving earlier than freeAt still queues.
	end2 := r.AcquireAt(55*Nanosecond, 10*Nanosecond)
	if end2 != 70*Nanosecond {
		t.Fatalf("end2 = %v, want 70ns", end2)
	}
}

// TestFutureDoubleCompletePanics also checks that the first Complete
// keeps its value and time, which the second may not overwrite.
func TestFutureDoubleCompletePanics(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture()
	e.Schedule(77*Nanosecond, func() {
		f.Complete(e, "x")
		defer func() {
			if f.Value() != "x" || f.CompletedAt() != 77*Nanosecond {
				t.Errorf("future holds %v at %v, want x at 77ns", f.Value(), f.CompletedAt())
			}
			if recover() == nil {
				t.Error("double Complete should panic")
			}
		}()
		f.Complete(e, nil)
	})
	e.Run()
}

// TestFutureCallbacksRunInRegistrationOrder covers the two inline waiters
// and the overflow slice behind them: callbacks run in registration order,
// and a waiter added after completion runs at once.
func TestFutureCallbacksRunInRegistrationOrder(t *testing.T) {
	e := NewEngine(1)
	var f Future // the zero value is a pending future
	var got []int
	for i := 1; i <= 4; i++ {
		f.OnComplete(func() { got = append(got, i) })
	}
	f.Complete(e, nil)
	f.OnComplete(func() { got = append(got, 5) })
	if fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Fatalf("callbacks ran in order %v, want [1 2 3 4 5]", got)
	}
}

// TestCompletionZeroAlloc is the allocation gate for completions: a future
// with one or two waiters, and a bound step that sleeps and then waits on
// a future, allocate nothing per cycle.
func TestCompletionZeroAlloc(t *testing.T) {
	if DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	e := NewEngine(1)
	var f Future
	cb := func() {}
	oneWaiter := func() {
		f = Future{}
		f.OnComplete(cb)
		f.Complete(e, nil)
	}
	if got := testing.AllocsPerRun(1000, oneWaiter); got != 0 {
		t.Errorf("OnComplete+Complete: %v allocs per run, want 0", got)
	}
	twoWaiters := func() {
		f = Future{}
		f.OnComplete(cb)
		f.OnComplete(cb)
		f.Complete(e, nil)
	}
	if got := testing.AllocsPerRun(1000, twoWaiters); got != 0 {
		t.Errorf("two OnCompletes+Complete: %v allocs per run, want 0", got)
	}

	// The step alternates a 1 ns sleep with a wait on g, as a rank's step
	// alternates compute with a completion wait.
	var g Future
	stop, slept := false, false
	var step func()
	step = func() {
		if slept = !slept; slept {
			e.Schedule(Nanosecond, step)
		} else if !stop {
			g.OnComplete(step)
		}
	}
	e.Schedule(0, step)
	e.Step() // the start event: the step schedules its first sleep
	sleepWait := func() {
		e.Step()           // the sleep's wake-up: the step waits on g
		g.Complete(e, nil) // runs the step into the next sleep
		g = Future{}
	}
	if got := testing.AllocsPerRun(1000, sleepWait); got != 0 {
		t.Errorf("Schedule+OnComplete step: %v allocs per run, want 0", got)
	}
	stop = true
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after the last wake-up", e.Pending())
	}
}

func TestDaemonEventsInvisibleToModel(t *testing.T) {
	e := NewEngine(1)
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i)*Microsecond, func() {})
	}
	var daemonRuns int
	var reschedule func()
	reschedule = func() {
		daemonRuns++
		e.ScheduleDaemonP(Microsecond, 1<<20, reschedule)
	}
	e.ScheduleDaemonP(Microsecond, 1<<20, reschedule)

	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5 model events (daemon excluded)", e.Pending())
	}
	end := e.Run()
	// The model's last event is at 5µs. Once it has popped, only daemons
	// remain, so the daemon pending at 5µs never executes: daemons run at
	// 1..4µs only and the clock stops on the model's end.
	if end != 5*Microsecond {
		t.Fatalf("run ended at %v, want the model's last event at 5.000us", end)
	}
	if daemonRuns != 4 {
		t.Fatalf("daemon ran %d times, want 4 (never once the model drained)", daemonRuns)
	}
	if e.EventsExecuted() != 5 {
		t.Fatalf("executed = %d, want 5 (daemons uncounted)", e.EventsExecuted())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after run, want 0 (trailing daemon excluded)", e.Pending())
	}
}

func TestDaemonOnlyQueueNeverRuns(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.ScheduleDaemonP(Microsecond, 0, func() { ran = true })
	if end := e.Run(); end != 0 {
		t.Fatalf("daemon-only run advanced the clock to %v", end)
	}
	if ran {
		t.Fatal("daemon executed with no model events queued")
	}
}
