// Package fixture seeds sim-time hygiene violations for the analyzer
// test.
package fixture

import (
	"time"

	"rvma/internal/sim"
)

func schedule(e *sim.Engine, deadline sim.Time) {
	e.Schedule(-5*sim.Nanosecond, func() {}) // want `constant negative delay`
	e.ScheduleP(-1, 3, func() {})            // want `constant negative delay`
	e.Schedule(deadline-e.Now(), func() {})  // want `bare subtraction that can underflow`

	// Non-negative constants and additive expressions are fine.
	e.Schedule(0, func() {})
	e.Schedule(2*sim.Microsecond, func() {})
	e.Schedule(deadline+sim.Nanosecond, func() {})
	// Absolute-time scheduling is the approved fix for deadlines.
	e.At(deadline, func() {})
	// A clamped difference is fine too (not a bare subtraction).
	d := deadline - e.Now()
	if d < 0 {
		d = 0
	}
	e.Schedule(d, func() {})
}

func convert(d time.Duration, t sim.Time) {
	_ = sim.Time(d)                             // want `converting time.Duration \(nanoseconds\) directly to sim.Time`
	_ = time.Duration(t)                        // want `converting sim.Time \(picoseconds\) directly to time.Duration`
	_ = sim.Time(d) * 1                         // want `converting time.Duration \(nanoseconds\) directly to sim.Time`
	_ = sim.FromNanos(float64(d.Nanoseconds())) // the approved conversion path
}
