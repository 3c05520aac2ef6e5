package sim

import (
	"testing"
)

// FuzzEngineSchedule drives random interleaved Schedule/NextEventTime/
// RunUntil/Step/Run sequences against a reference model (a sorted slice of
// expected executions) and checks that the engine's radix-heap queue and
// event pool preserve the kernel's contract:
//
//   - events execute in (time, priority, schedule-order) order, exactly
//     once, at exactly their scheduled timestamp;
//   - a peek (NextEventTime) reports the earliest pending time without
//     disturbing the order of what follows;
//   - the model-facing counters (EventsExecuted, Pending) account for
//     every event;
//   - the free list recycles executed events without ever handing a live
//     event back out (checked structurally here, and by the simdebug pool
//     invariants when the tag is on).
//
// Delays are drawn at picosecond resolution from 0 to ~2^40 ps, as a
// mantissa byte shifted by an exponent byte, so events land on every
// level of the radix heap the range reaches; after every op the queue's
// structure is swept (debugVerifyHeap). Priorities mix small values,
// which tie often, with large negative ones shaped like the fabric's
// locus priorities.
//
// The input bytes form an op stream: each op consumes 1-4 bytes, so the
// fuzzer's minimization maps directly onto shorter schedules.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 1, 0, 0, 20, 1, 3, 5, 6, 15, 5, 0, 5, 2, 0xc1, 7})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 5, 0, 0, 0, 0, 7, 6, 0, 0, 7, 7})
	f.Add([]byte{0, 32, 255, 2, 1, 16, 3, 0xff, 2, 8, 9, 0xc0, 5, 3, 0, 0, 0, 6, 20, 1, 5, 4, 40, 7, 1, 7, 7, 5})
	f.Add([]byte{2, 50, 4, 1, 3, 50, 4, 3, 4, 50, 4, 2, 0, 50, 4, 0xe0, 5, 6, 40, 4, 0, 0, 4, 1, 7, 4, 0, 0, 2})
	// Radix-heap shapes. Every level the delays reach (digits 0-8), at
	// the lowest and the highest bit of each digit, with peeks between.
	f.Add([]byte{0, 0, 1, 2, 0, 0, 8, 2, 0, 4, 1, 2, 0, 4, 8, 2, 5, 0, 8, 1, 2, 0, 8, 8, 2, 0, 12, 1, 2, 0, 12, 8, 2,
		5, 0, 16, 1, 2, 0, 16, 8, 2, 0, 20, 1, 2, 0, 20, 8, 2, 0, 24, 1, 2, 0, 24, 8, 2, 5, 0, 28, 1, 2, 0, 28, 8, 2,
		0, 32, 1, 2, 0, 32, 8, 2, 7, 5, 7, 7})
	// Three digits of level 2 (0x100, 0x300, 0x200), each popped in turn.
	f.Add([]byte{0, 8, 1, 2, 0, 8, 3, 0xc1, 0, 8, 2, 4, 5, 7, 5, 7, 7})
	// A last pop of 0x66, whose digits have their lowest and highest bits
	// clear, then times that differ from it in one such bit alone.
	f.Add([]byte{0, 0, 0x66, 2, 7, 0, 0, 1, 2, 0, 3, 1, 2, 0, 4, 1, 2, 0, 7, 1, 2, 0, 8, 1, 3, 0, 11, 1, 2,
		0, 16, 1, 2, 0, 19, 1, 1, 0, 24, 1, 2, 0, 27, 1, 2, 0, 32, 8, 2, 7, 5, 7})
	// One level-2 bucket (0x300 twice, 0x310, then 0x301 after the clock
	// moves to 0x202): the first pop refiles it into b0 and levels 0 and 1.
	f.Add([]byte{0, 8, 3, 3, 0, 8, 3, 2, 0, 4, 0x31, 2, 6, 8, 2, 6, 0, 2, 0, 0, 0xff, 2, 7, 5, 7, 7})

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

		// delay reads a mantissa byte shifted left by up to 32 bits: 0 ps
		// (a tie with the clock) through ~2^40 ps.
		delay := func() Time {
			shift := next() % 33
			return Time(next()) << shift
		}
		// priority reads one byte: mostly -2..2, and from 0xc0 up a large
		// negative priority like the fabric's -(1 + count*loci + locus).
		priority := func() int {
			b := next()
			if b >= 0xc0 {
				return -(1 + int(b&0x3f)*1_000_003)
			}
			return int(b%5) - 2
		}

		schedules := 0
		for pos < len(data) {
			switch op := next() % 8; {
			case op < 5: // schedule (weighted: the dominant kernel op)
				d := delay()
				pri := priority()
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
			case op == 5: // peek
				want := MaxTime
				if rs := refPending(MaxTime); len(rs) > 0 {
					want = rs[0].at
				}
				if got := e.NextEventTime(); got != want {
					t.Fatalf("NextEventTime = %v, want %v", got, want)
				}
			case op == 6: // bounded run
				limit := e.Now() + delay()
				refExecute(refPending(limit))
				e.RunUntil(limit)
			default: // single step
				if rs := refPending(MaxTime); len(rs) > 0 {
					refExecute(rs[:1])
				}
				e.Step()
			}
			// Every queued event sits in the bucket its (level, digit)
			// selects, and the occupancy words agree.
			e.debugVerifyHeap()
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
		if e.EventsExecuted() != uint64(schedules) {
			t.Fatalf("EventsExecuted = %d, want the %d scheduled", e.EventsExecuted(), schedules)
		}
		if e.Pending() != 0 {
			t.Fatalf("Pending = %d after final Run, want 0", e.Pending())
		}

		// Pool recycling: after a full drain every event object the engine
		// ever allocated is back in the free list — no more objects than
		// schedules, and at least one if anything was scheduled (the pool
		// actually recycles rather than leaking).
		if free := len(e.free); schedules > 0 && (free < 1 || free > schedules) {
			t.Fatalf("pool free = %d after drain, want 1..%d", free, schedules)
		}
	})
}
