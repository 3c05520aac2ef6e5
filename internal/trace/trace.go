// Package trace records a bounded ring of categorized model events. The
// fabric, NIC and protocol layers emit into a Tracer when one is attached;
// with no tracer attached the hooks cost one nil check. Aggregate counts
// live in the metrics registry and fabric.Stats, not here.
//
// cmd/rvmasim -trace prints the ring after the run, and the telemetry
// flight recorder dumps it when a run fails; tests use tracers to assert
// on internal behavior (inject, deliver and drop events) without reaching
// into model state.
package trace

import (
	"fmt"
	"io"

	"rvma/internal/sim"
)

// Category tags an event stream.
type Category string

// Categories emitted by the built-in models.
const (
	CatPacket Category = "packet" // injection, delivery, detour
	CatNIC    Category = "nic"    // pipeline activity
	CatRVMA   Category = "rvma"   // window lifecycle, completions, NACKs
	CatRDMA   Category = "rdma"   // registration, fences, acks
	CatApp    Category = "app"    // application-level marks
)

// Event is one trace record.
type Event struct {
	At  sim.Time
	Cat Category
	Msg string
}

// Tracer collects the recent events of one simulation in a bounded ring.
type Tracer struct {
	eng     *sim.Engine
	enabled map[Category]bool
	all     bool

	ring    []Event
	next    int
	wrapped bool

	// Suppressed counts events rejected because their category was
	// disabled; Overwritten counts events lost to ring wraparound. The
	// former is expected noise, the latter means the ring was too small
	// for the run.
	Suppressed  uint64
	Overwritten uint64
}

// New returns a tracer bound to the engine with a bounded event ring.
// No categories are enabled initially.
func New(eng *sim.Engine, capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		eng:     eng,
		enabled: make(map[Category]bool),
		ring:    make([]Event, 0, capacity),
	}
}

// Enable turns on event recording for the categories (or EnableAll).
func (t *Tracer) Enable(cats ...Category) {
	for _, c := range cats {
		t.enabled[c] = true
	}
}

// EnableAll records every category.
func (t *Tracer) EnableAll() { t.all = true }

// Enabled reports whether a category records events.
func (t *Tracer) Enabled(c Category) bool { return t != nil && (t.all || t.enabled[c]) }

// Eventf records a formatted event at the current simulated time.
func (t *Tracer) Eventf(cat Category, format string, args ...any) {
	if t == nil {
		return
	}
	if !t.Enabled(cat) {
		t.Suppressed++
		return
	}
	ev := Event{At: t.eng.Now(), Cat: cat, Msg: fmt.Sprintf(format, args...)}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
		return
	}
	t.ring[t.next] = ev
	t.next = (t.next + 1) % cap(t.ring)
	t.wrapped = true
	t.Overwritten++
}

// Events returns the recorded events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		out := make([]Event, len(t.ring))
		copy(out, t.ring)
		return out
	}
	out := make([]Event, 0, cap(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dump writes the event log, then how many events were suppressed or
// overwritten.
func (t *Tracer) Dump(w io.Writer) {
	if t == nil {
		return
	}
	evs := t.Events()
	if len(evs) > 0 {
		fmt.Fprintf(w, "events (%d recorded%s):\n", len(evs), wrappedNote(t.wrapped))
		for _, e := range evs {
			fmt.Fprintf(w, "  [%v] %s: %s\n", e.At, e.Cat, e.Msg)
		}
	}
	if t.Suppressed > 0 || t.Overwritten > 0 {
		fmt.Fprintf(w, "suppressed (category disabled): %d, overwritten (ring full): %d\n",
			t.Suppressed, t.Overwritten)
	}
}

func wrappedNote(wrapped bool) string {
	if wrapped {
		return ", ring wrapped: oldest dropped"
	}
	return ""
}
