package rdma

import (
	"strings"
	"testing"

	"rvma/internal/sim"
)

// TestFifoWrapsAndKeepsCapacity fills a fifo past its initial capacity
// while its head is mid-ring, then drains and refills it: entries come out
// in push order, and a drained queue keeps its backing array.
func TestFifoWrapsAndKeepsCapacity(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	popN := func(k int) {
		for ; k > 0; k-- {
			if got := q.pop(); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
	}
	pushN := func(k int) {
		for ; k > 0; k-- {
			q.push(next)
			next++
		}
	}
	pushN(3)
	popN(2) // head mid-ring
	pushN(40)
	if *q.front() != want || *q.back() != next-1 {
		t.Fatalf("front/back = %d/%d, want %d/%d", *q.front(), *q.back(), want, next-1)
	}
	popN(q.n)
	peak := cap(q.buf)
	if peak < 41 {
		t.Fatalf("capacity %d after 41 queued entries", peak)
	}
	allocs := testing.AllocsPerRun(10, func() {
		pushN(peak)
		popN(peak)
	})
	if allocs != 0 || cap(q.buf) != peak {
		t.Fatalf("refilling a drained fifo to its peak: %v allocs, capacity %d -> %d", allocs, peak, cap(q.buf))
	}
}

// TestStagePopChecksTime: a stage event that fires at a time other than
// its head entry's panics instead of running the wrong operation.
func TestStagePopChecksTime(t *testing.T) {
	var s stage[int]
	s.push(5, 1)
	s.push(7, 2)
	if got := s.pop(5); got != 1 {
		t.Fatalf("pop(5) = %d, want 1", got)
	}
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "stage event at") {
			t.Fatalf("pop at the wrong time: recovered %v, want a stage-order panic", r)
		}
	}()
	s.pop(sim.Time(6))
}
