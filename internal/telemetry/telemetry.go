// Package telemetry provides time-resolved observability for simulation
// runs: a deterministic in-sim sampler that snapshots registered probes on
// a fixed sim-time cadence into bounded columnar time-series, CSV and
// heatmap exporters, and a causal flight recorder that dumps the last N
// model events with context when a run fails.
//
// Sampling is itself a simulation process: the sampler schedules its own
// tick events on the engine. Determinism therefore demands that sampling
// be invisible to the model — a probe must only read state, never schedule
// events, draw from the RNG, acquire resources, or mutate anything the
// model can observe. Ticks ride on the engine's daemon events
// (sim.ScheduleDaemonP): daemons never keep a run alive or advance its
// clock past the last model event, and are excluded from the model-facing
// event counters, so a run's results — makespan, final clock, metrics
// snapshots — are byte-identical with sampling enabled or disabled; the
// same-seed regression test in internal/harness holds runs to exactly
// that. Ticks use a large scheduling priority so a sample always observes
// the state *after* every model event at its timestamp.
package telemetry

import (
	"fmt"
	"io"
	"sort"

	"rvma/internal/sim"
)

// Probe reads one scalar from model state at sample time. Probes must be
// pure readers of the model: no event scheduling, no RNG draws, no
// resource acquisition, no writes to model state. A probe may keep private
// state of its own (e.g. the previous busy-time for windowed utilization).
type Probe func() float64

// tickPriority orders sampler ticks after every model event sharing their
// timestamp, so a sample sees the post-event state of its instant. Model
// code uses small priorities (single digits); anything at or above this
// value would race the sampler and is not used by the models.
const tickPriority = 1 << 20

// DefaultMaxSamples bounds a sampler's stored rows. Hitting the bound
// halves the stored history (dropping every other row) and doubles the
// sampling interval going forward, so memory stays bounded for arbitrarily
// long runs at the cost of time resolution — never an unbounded append.
const DefaultMaxSamples = 4096

// Sampler snapshots registered probes into columnar time-series on a
// fixed sim-time cadence. The zero value is not usable; use New. All
// methods on a nil *Sampler are no-ops (mirroring the registry/tracer
// convention), so model wiring costs one nil check when detached.
type Sampler struct {
	eng        *sim.Engine
	interval   sim.Time
	maxSamples int

	names  []string // registration order; export sorts
	probes []Probe

	times []sim.Time  // sample timestamps, one per stored row
	cols  [][]float64 // cols[i] parallels probes[i]; len == len(times)

	onSample []func(at sim.Time)

	started    bool
	ticks      uint64 // rows recorded, including ones later downsampled away
	dropped    uint64 // rows discarded by downsampling
	compressed int    // number of downsample passes
}

// New returns a sampler that ticks on eng at the given interval (sim
// time). A non-positive interval panics.
func New(eng *sim.Engine, interval sim.Time) *Sampler {
	if interval <= 0 {
		panic(fmt.Sprintf("telemetry: non-positive sample interval %v", interval))
	}
	return &Sampler{eng: eng, interval: interval, maxSamples: DefaultMaxSamples}
}

// SetMaxSamples bounds stored rows (minimum 2). Must be called before
// Start.
func (s *Sampler) SetMaxSamples(n int) {
	if s == nil {
		return
	}
	if s.started {
		panic("telemetry: SetMaxSamples after Start")
	}
	if n < 2 {
		n = 2
	}
	s.maxSamples = n
}

// Register adds a named probe column. Names must be unique; columns are
// exported in sorted-name order regardless of registration order. Must be
// called before Start.
func (s *Sampler) Register(name string, p Probe) {
	if s == nil {
		return
	}
	if s.started {
		panic(fmt.Sprintf("telemetry: Register(%q) after Start", name))
	}
	for _, n := range s.names {
		if n == name {
			panic(fmt.Sprintf("telemetry: duplicate probe %q", name))
		}
	}
	s.names = append(s.names, name)
	s.probes = append(s.probes, p)
	s.cols = append(s.cols, nil)
}

// OnSample registers fn to run after each recorded sample row, at the
// sample's sim time. Callbacks observe cumulative probe state between
// ticks (the NACK-burst watcher lives here); like probes they must not
// perturb the model.
func (s *Sampler) OnSample(fn func(at sim.Time)) {
	if s == nil || fn == nil {
		return
	}
	s.onSample = append(s.onSample, fn)
}

// Start schedules the first tick one interval from now. Ticks are daemon
// events: the engine never executes a tick once only daemons remain
// queued, so an attached sampler cannot keep Run alive or extend the
// run's clock.
func (s *Sampler) Start() {
	if s == nil || s.started {
		return
	}
	s.started = true
	s.eng.ScheduleDaemonP(s.interval, tickPriority, s.tick)
}

func (s *Sampler) tick() {
	s.record()
	s.eng.ScheduleDaemonP(s.interval, tickPriority, s.tick)
}

func (s *Sampler) record() {
	if len(s.times) >= s.maxSamples {
		s.compress()
	}
	now := s.eng.Now()
	s.times = append(s.times, now)
	for i, p := range s.probes {
		s.cols[i] = append(s.cols[i], p())
	}
	s.ticks++
	for _, fn := range s.onSample {
		fn(now)
	}
}

// compress halves the stored history (keeping every other row, oldest
// first) and doubles the tick interval, so row count and memory stay
// bounded while the series still spans the whole run.
func (s *Sampler) compress() {
	keep := (len(s.times) + 1) / 2
	for i := 0; i < keep; i++ {
		s.times[i] = s.times[2*i]
	}
	s.dropped += uint64(len(s.times) - keep)
	s.times = s.times[:keep]
	for c := range s.cols {
		col := s.cols[c]
		for i := 0; i < keep; i++ {
			col[i] = col[2*i]
		}
		s.cols[c] = col[:keep]
	}
	s.interval *= 2
	s.compressed++
}

// Interval returns the current tick interval (doubled by each downsample
// pass).
func (s *Sampler) Interval() sim.Time {
	if s == nil {
		return 0
	}
	return s.interval
}

// Samples returns the number of stored rows.
func (s *Sampler) Samples() int {
	if s == nil {
		return 0
	}
	return len(s.times)
}

// Ticks returns the number of samples ever recorded, including rows later
// discarded by downsampling.
func (s *Sampler) Ticks() uint64 {
	if s == nil {
		return 0
	}
	return s.ticks
}

// Dropped returns the number of rows discarded by downsampling.
func (s *Sampler) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped
}

// Columns returns the probe names in export (sorted) order.
func (s *Sampler) Columns() []string {
	if s == nil {
		return nil
	}
	out := make([]string, len(s.names))
	copy(out, s.names)
	sort.Strings(out)
	return out
}

// sortedIndex returns probe indices ordered by name, optionally filtered
// to names with the given prefix.
func (s *Sampler) sortedIndex(prefix string) []int {
	idx := make([]int, 0, len(s.names))
	for i, n := range s.names {
		if prefix == "" || hasPrefix(n, prefix) {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return s.names[idx[a]] < s.names[idx[b]] })
	return idx
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// Column returns the stored values of a named probe (nil if unknown).
func (s *Sampler) Column(name string) []float64 {
	if s == nil {
		return nil
	}
	for i, n := range s.names {
		if n == name {
			out := make([]float64, len(s.cols[i]))
			copy(out, s.cols[i])
			return out
		}
	}
	return nil
}

// WriteCSV emits the time-series: header "time_ns,<sorted names>", then
// one row per stored sample. Output is byte-deterministic for a given
// sampler state.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if s == nil {
		return fmt.Errorf("telemetry: nil sampler")
	}
	idx := s.sortedIndex("")
	if _, err := io.WriteString(w, "time_ns"); err != nil {
		return err
	}
	for _, i := range idx {
		if _, err := fmt.Fprintf(w, ",%s", s.names[i]); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for r := range s.times {
		if _, err := fmt.Fprintf(w, "%.0f", s.times[r].Nanoseconds()); err != nil {
			return err
		}
		for _, i := range idx {
			if _, err := fmt.Fprintf(w, ",%g", s.cols[i][r]); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteHeatmapCSV emits a matrix view of the probe columns whose names
// start with prefix (e.g. "fabric.sw"): one row per matching probe (sorted
// by name, so zero-padded switch names order numerically), one column per
// sample time. This is the per-switch × time congestion heatmap; feed it
// straight to a matrix plotter.
func (s *Sampler) WriteHeatmapCSV(w io.Writer, prefix string) error {
	if s == nil {
		return fmt.Errorf("telemetry: nil sampler")
	}
	idx := s.sortedIndex(prefix)
	if len(idx) == 0 {
		return fmt.Errorf("telemetry: no probes with prefix %q", prefix)
	}
	if _, err := io.WriteString(w, "series"); err != nil {
		return err
	}
	for _, t := range s.times {
		if _, err := fmt.Fprintf(w, ",%.0f", t.Nanoseconds()); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, i := range idx {
		if _, err := io.WriteString(w, s.names[i]); err != nil {
			return err
		}
		for r := range s.times {
			if _, err := fmt.Fprintf(w, ",%g", s.cols[i][r]); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
