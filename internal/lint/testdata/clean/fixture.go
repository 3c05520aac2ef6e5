// Package fixture is the negative control: idiomatic model code that
// must produce zero diagnostics from every analyzer.
package fixture

import (
	"sort"

	"rvma/internal/sim"
)

type model struct {
	eng   *sim.Engine
	boxes map[int]*box
}

type box struct{ depth int }

func (m *model) step() {
	// Commutative map aggregation: no calls, no escaping appends.
	total := 0
	for _, b := range m.boxes {
		total += b.depth
	}

	// Ordered iteration: collect, sort, then do order-sensitive work.
	ids := make([]int, 0, len(m.boxes))
	for id := range m.boxes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		b := m.boxes[id]
		m.eng.Schedule(sim.Time(b.depth)*sim.Nanosecond, func() {})
	}

	// Jitter from the engine's seeded RNG, never the global source.
	d := m.eng.RNG().Jitter(5*sim.Microsecond, 0.1)
	m.eng.Schedule(d, func() {})

	// An actor that waits is a step record: the engine runs its step after
	// a delay, and a future runs it again as a continuation.
	f := sim.NewFuture()
	m.eng.Schedule(sim.Time(total)*sim.Nanosecond, func() { f.OnComplete(m.step) })
}
