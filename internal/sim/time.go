// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel plays the role SST (the Structural Simulation Toolkit) plays in
// the RVMA paper: it owns virtual time and executes events in a strict
// (time, priority, sequence) order so that every simulation run is exactly
// reproducible. Time is kept as an integer count of picoseconds, which gives
// the 200 ps resolution the paper's simulations used ("5 billion updates per
// simulated second") with no floating-point drift.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in (or duration of) simulated time, in picoseconds.
//
// A signed 64-bit picosecond clock covers about 106 days of simulated time,
// far beyond any experiment in this repository.
type Time int64

// Duration units. These mirror time.Duration's constants but are resolved
// at picosecond granularity because network serialization at 2 Tbps needs
// sub-nanosecond precision (one byte at 2 Tbps is 4 ps).
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time. It is used as the
// "never" sentinel by schedulers and resource models.
const MaxTime Time = math.MaxInt64

// Picoseconds returns the raw picosecond count as a float64. Exact for
// magnitudes below 2^53 ps (~2.5 simulated hours), which is why the
// shard-set telemetry merge sums ps in float64 and divides once at the
// edge: integer-exact addition is order-free, so the merged value is
// independent of how shards were partitioned.
func (t Time) Picoseconds() float64 { return float64(t) }

// Nanoseconds returns the time as a floating-point nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns the time as a floating-point microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns the time as a floating-point second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with a unit chosen for readability.
func (t Time) String() string {
	switch {
	case t == MaxTime:
		return "never"
	case t < 0:
		return fmt.Sprintf("-%s", (-t).String())
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// FromNanos converts a floating-point nanosecond count into a Time,
// rounding to the nearest picosecond.
//
//rvmalint:allow psunits -- sanctioned float->ps boundary: the rounding policy is explicit here
func FromNanos(ns float64) Time { return Time(math.Round(ns * float64(Nanosecond))) }

// Scale returns n*per, panicking on int64 overflow instead of silently
// wrapping. Model code sizing a cost by an element or page count must use
// this rather than a bare multiplication: at 8k-node scale a payload size
// times a per-byte cost can exceed 106 days of picoseconds, and a wrapped
// negative delay would corrupt the event queue invisibly. (The psunits
// analyzer rejects unguarded Time multiplications and points here.)
func Scale(n int, per Time) Time {
	if n == 0 || per == 0 {
		return 0
	}
	//rvmalint:allow psunits -- this is the checked multiply the analyzer directs model code to
	out := Time(n) * per
	if out/per != Time(n) {
		panic(fmt.Sprintf("sim: Scale(%d, %d) overflows int64 picoseconds", n, per))
	}
	return out
}

// ScaleF returns t scaled by factor, truncating toward zero (the same
// policy as a direct float->int conversion, so existing call sites keep
// bit-identical results) and clamping to [0, MaxTime]. It is the one
// sanctioned way to apply a fractional factor (jitter, link-speed
// derating, host-noise multipliers) to a duration; everywhere else,
// float conversions of Time are rejected by the psunits analyzer.
//
//rvmalint:allow psunits -- sanctioned ps<->float boundary: truncation and clamping are explicit here
func ScaleF(t Time, factor float64) Time {
	f := float64(t) * factor
	if f <= 0 || math.IsNaN(f) {
		return 0
	}
	if f >= float64(MaxTime) {
		return MaxTime
	}
	return Time(f)
}

// Ratio returns a/b as a float, the sanctioned way to express one
// duration as a fraction of another (utilization, blame shares). The
// unit cancels, so this is not a precision-losing time conversion.
//
//rvmalint:allow psunits -- dimensionless ratio: the ps unit cancels between numerator and denominator
func Ratio(a, b Time) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// SerializationTime returns the time needed to move size bytes over a
// channel running at gbps gigabits per second. It rounds up to a whole
// picosecond so that a nonzero payload always consumes nonzero time.
//
//rvmalint:allow psunits -- sanctioned float->ps boundary: ceiling rounding is the explicit policy
func SerializationTime(size int, gbps float64) Time {
	if size <= 0 || gbps <= 0 {
		return 0
	}
	ps := float64(size) * 8.0 / gbps * 1000.0 // bits / (Gbit/s) => ns; *1000 => ps
	t := Time(math.Ceil(ps))
	if t < 1 {
		t = 1
	}
	return t
}
