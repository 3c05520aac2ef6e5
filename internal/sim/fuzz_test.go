package sim

import (
	"testing"
)

// FuzzEngineSchedule drives random interleaved Schedule/RunUntil/Step/Run
// sequences against a reference model (a sorted slice of expected
// executions) and checks that the engine's 4-ary heap and event pool
// preserve the kernel's contract:
//
//   - events execute in (time, priority, schedule-order) order, exactly
//     once, at exactly their scheduled timestamp;
//   - the model-facing counters (EventsScheduled, EventsExecuted, Pending)
//     account for every event;
//   - the free list recycles executed events without ever handing a live
//     event back out (checked structurally here, and by the simdebug pool
//     invariants when the tag is on).
//
// The input bytes form an op stream: each op consumes 1-3 bytes, so the
// fuzzer's minimization maps directly onto shorter schedules.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 1, 0, 20, 0, 6, 15, 0, 5, 2})
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 0, 4, 0, 4, 1, 6, 255, 7, 7})
	f.Add([]byte{0, 0, 0, 1, 0, 4, 2, 0, 0, 3, 6, 0, 0, 200, 1, 7, 4, 5, 6, 9})
	f.Add([]byte{2, 50, 4, 1, 50, 3, 3, 50, 2, 0, 50, 1, 6, 50, 4, 0, 4, 1, 4, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		type refEvent struct {
			id       int
			at       Time // absolute scheduled time
			pri      int
			executed bool
		}

		e := NewEngine(1)
		var refs []*refEvent
		var got []int  // executed ids, in engine order
		var ran []bool // per-id: the engine actually ran it (callback fired)

		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}

		// refPending returns pending (not yet executed) events
		// with at <= limit, in the engine's (time, priority, schedule
		// order) execution order. Schedule order stands in for the engine's
		// seq: each ScheduleP call consumes exactly one sequence number.
		refPending := func(limit Time) []*refEvent {
			var out []*refEvent
			for _, r := range refs {
				if !r.executed && r.at <= limit {
					out = append(out, r)
				}
			}
			// Insertion sort keeps ties in schedule order (stable).
			for i := 1; i < len(out); i++ {
				for j := i; j > 0; j-- {
					a, b := out[j], out[j-1]
					if a.at < b.at || (a.at == b.at && a.pri < b.pri) {
						out[j], out[j-1] = out[j-1], out[j]
					} else {
						break
					}
				}
			}
			return out
		}
		// wantOrder accumulates the reference's expected execution order
		// incrementally, run window by run window: a global post-hoc sort
		// would mis-order later-scheduled events that tie on timestamp
		// with events already executed in an earlier window.
		var wantOrder []int
		refExecute := func(rs []*refEvent) {
			for _, r := range rs {
				r.executed = true
				wantOrder = append(wantOrder, r.id)
			}
		}

		schedules := 0
		for pos < len(data) {
			switch op := next() % 8; {
			case op < 6: // schedule (weighted: the dominant kernel op)
				d := Time(next()) * Nanosecond
				pri := int(next()%5) - 2
				id := len(refs)
				r := &refEvent{id: id, at: e.Now() + d, pri: pri}
				refs = append(refs, r)
				ran = append(ran, false)
				e.ScheduleP(d, pri, func() {
					if now := e.Now(); now != r.at {
						t.Fatalf("event %d ran at %v, scheduled for %v", id, now, r.at)
					}
					if ran[id] {
						t.Fatalf("event %d executed twice", id)
					}
					ran[id] = true
					got = append(got, id)
				})
				schedules++
			case op == 6: // bounded run
				limit := e.Now() + Time(next())*Nanosecond
				refExecute(refPending(limit))
				e.RunUntil(limit)
			default: // single step
				if rs := refPending(MaxTime); len(rs) > 0 {
					refExecute(rs[:1])
				}
				e.Step()
			}
		}
		refExecute(refPending(MaxTime))
		e.Run()

		// Execution trace matches the reference order exactly.
		if len(got) != len(wantOrder) {
			t.Fatalf("executed %d events, reference says %d", len(got), len(wantOrder))
		}
		for i, id := range got {
			if id != wantOrder[i] {
				t.Fatalf("execution order diverged at %d: got event %d, want %d", i, id, wantOrder[i])
			}
		}

		// Counters account for every event.
		if e.EventsScheduled() != uint64(schedules) {
			t.Fatalf("EventsScheduled = %d, want %d", e.EventsScheduled(), schedules)
		}
		if e.EventsExecuted() != uint64(len(got)) {
			t.Fatalf("EventsExecuted = %d, want %d", e.EventsExecuted(), len(got))
		}
		if e.Pending() != 0 {
			t.Fatalf("Pending = %d after final Run, want 0", e.Pending())
		}

		// Pool recycling: after a full drain every event object the engine
		// ever allocated is back in the free list — no more objects than
		// schedules, and at least one if anything was scheduled (the pool
		// actually recycles rather than leaking).
		if free := e.PoolFree(); schedules > 0 && (free < 1 || free > schedules) {
			t.Fatalf("pool free = %d after drain, want 1..%d", free, schedules)
		}
	})
}
