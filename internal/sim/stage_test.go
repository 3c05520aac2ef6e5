package sim

import (
	"slices"
	"strings"
	"testing"
)

// TestFifoWrapsAndKeepsCapacity fills a FIFO past its initial capacity
// while its head is mid-ring, then drains and refills it: entries come out
// in push order, and a drained queue keeps its backing array.
func TestFifoWrapsAndKeepsCapacity(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	popN := func(k int) {
		for ; k > 0; k-- {
			if got := q.Pop(); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
	}
	pushN := func(k int) {
		for ; k > 0; k-- {
			q.Push(next)
			next++
		}
	}
	pushN(3)
	popN(2) // head mid-ring
	pushN(40)
	if *q.Front() != want || *q.Back() != next-1 {
		t.Fatalf("front/back = %d/%d, want %d/%d", *q.Front(), *q.Back(), want, next-1)
	}
	popN(q.Len())
	peak := cap(q.buf)
	if peak < 41 {
		t.Fatalf("capacity %d after 41 queued entries", peak)
	}
	allocs := testing.AllocsPerRun(10, func() {
		pushN(peak)
		popN(peak)
	})
	if allocs != 0 || cap(q.buf) != peak {
		t.Fatalf("refilling a drained FIFO to its peak: %v allocs, capacity %d -> %d", allocs, peak, cap(q.buf))
	}
}

// TestStagePopChecksTime: a stage event that fires at a time other than
// its head entry's panics instead of running the wrong operation.
func TestStagePopChecksTime(t *testing.T) {
	var s Stage[int]
	s.Push(5, 1)
	s.Push(7, 2)
	if got := s.Pop(5); got != 1 {
		t.Fatalf("pop(5) = %d, want 1", got)
	}
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "stage event at") {
			t.Fatalf("pop at the wrong time: recovered %v, want a stage-order panic", r)
		}
	}()
	s.Pop(Time(6))
}

// TestStageDrop: dropping an idle stage releases its array, and dropping
// one with a queued entry keeps the entry for its event.
func TestStageDrop(t *testing.T) {
	var s Stage[int]
	s.Push(5, 1)
	s.Drop()
	if s.Len() != 1 {
		t.Fatalf("Drop with an entry queued left %d entries, want 1", s.Len())
	}
	if got := s.Pop(5); got != 1 {
		t.Fatalf("pop(5) = %d, want 1", got)
	}
	s.Drop()
	if s.q.buf != nil {
		t.Fatalf("Drop of an idle stage kept an array of %d", cap(s.q.buf))
	}
	s.Push(7, 2)
	if got := s.Pop(7); got != 2 {
		t.Fatalf("pop(7) after Drop = %d, want 2", got)
	}
}

// TestStagePopsOutOfOrderEntries: entries queued out of time order, as a
// clock that ran back queues them, each reach the event due at their
// time, and entries due at one time come out in the order they were
// queued, also with the ring wrapped. A simdebug build refuses the first
// entry queued out of order instead.
func TestStagePopsOutOfOrderEntries(t *testing.T) {
	var s Stage[string]
	if DebugEnabled {
		s.Push(9, "a")
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "queued behind") {
				t.Fatalf("an entry queued out of order under simdebug: recovered %q, want an ordering panic", msg)
			}
		}()
		s.Push(7, "b")
		return
	}
	s.Push(1, "w")
	s.Push(2, "x")
	s.Pop(1)
	s.Pop(2) // the head is mid-ring from here on
	for _, e := range []struct {
		at Time
		v  string
	}{{9, "a"}, {7, "b"}, {7, "c"}, {5, "d"}, {9, "e"}} {
		s.Push(e.at, e.v)
	}
	var got string
	for _, at := range []Time{5, 7, 7, 9, 9} {
		got += s.Pop(at)
	}
	if got != "dbcae" {
		t.Fatalf("popped %q, want %q", got, "dbcae")
	}
	if s.Len() != 0 {
		t.Fatalf("%d entries left", s.Len())
	}
}

// TestDelayStageServesManyOwners: one DelayStage carries the entries of
// several owners, each event at its entry's time plus the delay, in the
// order they were queued, and every event carries the handle's label.
func TestDelayStageServesManyOwners(t *testing.T) {
	e := NewEngine(1)
	eng := e.Tag("host")
	var s DelayStage[int]
	type ran struct {
		at    Time
		owner int
	}
	var got []ran
	s.Init(eng, 3*Nanosecond, Func(func() { got = append(got, ran{e.Now(), s.Next()}) }))
	for i := 0; i < 4; i++ {
		owner := i
		e.Schedule(Time(i/2)*Nanosecond, func() { s.Add(owner) })
	}
	e.Run()
	want := []ran{{3 * Nanosecond, 0}, {3 * Nanosecond, 1}, {4 * Nanosecond, 2}, {4 * Nanosecond, 3}}
	if !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if s.Delay() != 3*Nanosecond || !s.Held() {
		t.Fatalf("delay %v, held %v", s.Delay(), s.Held())
	}
	s.Drop()
	if s.Held() {
		t.Fatal("Drop of an idle stage kept its array")
	}
}

// TestSlabCarvesAndDrops: New and small Makes come from one chunk, a
// large Make is an allocation of its exact size, and Drop lets the chunk
// go.
func TestSlabCarvesAndDrops(t *testing.T) {
	var s Slab[[4]int]
	allocs := testing.AllocsPerRun(1, func() {
		s.Drop()
		for i := 0; i < SlabChunk/4; i++ {
			s.New()
		}
		s.Make(SlabChunk / 4)
		s.Make(2)
	})
	if allocs != 1 {
		t.Fatalf("%v allocations for %d records, want 1 chunk", allocs, SlabChunk/4*2+2)
	}
	if big := s.Make(SlabChunk); len(big) != SlabChunk || cap(big) != SlabChunk {
		t.Fatalf("a large Make has length %d and capacity %d, want %d", len(big), cap(big), SlabChunk)
	}
	if small := s.Make(3); cap(small) != 3 {
		t.Fatalf("a carved Make has capacity %d, want 3", cap(small))
	}
	if !s.Held() {
		t.Fatal("a slab that carved records holds no chunk")
	}
	s.Drop()
	if s.Held() {
		t.Fatal("Drop kept the chunk")
	}
}

// TestFifoPushInCarvesSmallRings: queues that grow through PushIn take
// their rings from one slab while the rings are small, so many shallow
// queues cost a chunk, not a ring each; entries keep their order across
// every regrow, also with the ring wrapped; and a ring past the slab's
// carving size is an allocation of its own.
func TestFifoPushInCarvesSmallRings(t *testing.T) {
	var s Slab[int]
	qs := make([]FIFO[int], 8)
	allocs := testing.AllocsPerRun(1, func() {
		s.Drop()
		for i := range qs {
			qs[i] = FIFO[int]{}
			qs[i].PushIn(&s, i)
		}
	})
	if allocs != 1 {
		t.Fatalf("%v allocations for %d one-entry queues, want 1 chunk", allocs, len(qs))
	}
	var q FIFO[int]
	next, want := 0, 0
	q.PushIn(&s, next)
	next++
	q.PushIn(&s, next)
	next++
	if got := q.Pop(); got != want { // the head is mid-ring from here on
		t.Fatalf("pop = %d, want %d", got, want)
	}
	want++
	for ; next < SlabChunk; next++ {
		q.PushIn(&s, next)
	}
	if cap(q.buf) <= SlabChunk/4 {
		t.Fatalf("capacity %d after %d queued entries", cap(q.buf), q.Len())
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d entries, pushed %d", want, next)
	}
}

// TestTimerStageFiresInTimeOrder: entries with delays of their own fire
// at their times, in time order, and entries due at one time in the
// order they were queued, which is the order the engine fires their
// events.
func TestTimerStageFiresInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	eng := e.Tag("retry")
	var s TimerStage[string]
	type ran struct {
		at Time
		v  string
	}
	var got []ran
	s.Init(eng, Func(func() { got = append(got, ran{e.Now(), s.Next()}) }))
	e.Schedule(0, func() {
		s.Add(5*Nanosecond, "a")
		s.Add(2*Nanosecond, "b")
		s.Add(5*Nanosecond, "c")
		s.Add(0, "d")
	})
	e.Schedule(3*Nanosecond, func() { s.Add(2*Nanosecond, "e") })
	e.Run()
	want := []ran{{0, "d"}, {2 * Nanosecond, "b"}, {5 * Nanosecond, "a"}, {5 * Nanosecond, "c"}, {5 * Nanosecond, "e"}}
	if !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if s.Len() != 0 || !s.Held() {
		t.Fatalf("%d entries left, held %v", s.Len(), s.Held())
	}
	s.Drop()
	if s.Held() {
		t.Fatal("Drop of an idle stage kept its heap")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "negative timer delay") {
			t.Fatalf("a negative delay: recovered %q, want a panic", msg)
		}
	}()
	s.Add(-1, "f")
}
