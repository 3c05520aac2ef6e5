package sim

import (
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
