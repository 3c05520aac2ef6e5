package harness

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"rvma/internal/sim"
)

// BenchRecord is one experiment cell's performance sample: how much
// simulated time the cell covered, how long it took on the wall clock, and
// the resulting event throughput. CI writes a fig7 sweep's records to
// BENCH_sim.json and compares them with the committed BENCH_baseline.json
// (scripts/check_bench_regression.py) to track simulator performance.
type BenchRecord struct {
	// Cell identifies the experiment point: "motif|network|TRANSPORT|gbps"
	// plus the cell's non-default knobs (see cellName).
	Cell string `json:"cell"`
	// WallMS is the host wall-clock run time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// SimNS is the simulated makespan in nanoseconds.
	SimNS float64 `json:"sim_ns"`
	// Events is the number of simulation events executed.
	Events uint64 `json:"events"`
	// EventsPerSec is Events divided by wall seconds. For a sharded cell
	// this is the aggregate across all shards — the number parallel
	// execution improves.
	EventsPerSec float64 `json:"events_per_sec"`
	// Shards is the cell's engine partition count (at least 1).
	// events_per_sec is only comparable between records with equal Shards;
	// Events must match regardless (the byte-identical guarantee).
	Shards int `json:"shards,omitempty"`
}

// BenchSummary aggregates a sweep. WallMSTotal sums the per-cell wall
// times — the regression-guard denominator. Per-cell wall time inflates
// when workers oversubscribe the host's cores (concurrent cells
// time-share), so throughput guards must compare runs at the same
// -workers setting; CI pins -workers 1. ElapsedMS is the sweep's
// start-to-finish wall time (what parallelism improves); Workers records
// the pool size.
type BenchSummary struct {
	Cells          int     `json:"cells"`
	WallMSTotal    float64 `json:"wall_ms_total"`
	ElapsedMS      float64 `json:"elapsed_ms,omitempty"`
	EventsTotal    uint64  `json:"events_total"`
	EventsPerSec   float64 `json:"events_per_sec_aggregate"`
	Workers        int     `json:"workers,omitempty"`
	SimNSTotal     float64 `json:"sim_ns_total"`
	SimNSPerWallMS float64 `json:"sim_ns_per_wall_ms"`
	// Shards is the sweep's engine partition count when every record agrees
	// on one; omitted for mixed sweeps.
	Shards int `json:"shards,omitempty"`
}

// BenchLog accumulates BenchRecords across a harness invocation. The
// harness is host-side code (exempt from the determinism lint), so it may
// read the wall clock; records never feed back into any simulation. The
// log is safe for concurrent appends, although the worker-pool runner
// records into per-cell logs and merges serially so record order stays
// canonical.
type BenchLog struct {
	mu      sync.Mutex
	Records []BenchRecord

	// Workers and Elapsed are sweep-level metadata the CLI fills in
	// before WriteJSON.
	Workers int
	Elapsed time.Duration
}

// newBenchRecord builds one cell sample. shards is the cell's engine
// partition count.
func newBenchRecord(cell string, wall time.Duration, simT sim.Time, events uint64, shards int) BenchRecord {
	r := BenchRecord{
		Cell:   cell,
		WallMS: float64(wall.Nanoseconds()) / 1e6,
		SimNS:  simT.Nanoseconds(),
		Events: events,
		Shards: shards,
	}
	if secs := wall.Seconds(); secs > 0 {
		r.EventsPerSec = float64(events) / secs
	}
	return r
}

// Append adds an already-built record (the worker-pool merge path).
func (b *BenchLog) Append(r BenchRecord) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.Records = append(b.Records, r)
	b.mu.Unlock()
}

// Summary aggregates the records collected so far.
func (b *BenchLog) Summary() BenchSummary {
	if b == nil {
		return BenchSummary{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BenchSummary{
		Cells:   len(b.Records),
		Workers: b.Workers,
	}
	if b.Elapsed > 0 {
		s.ElapsedMS = float64(b.Elapsed.Nanoseconds()) / 1e6
	}
	for i, r := range b.Records {
		s.WallMSTotal += r.WallMS
		s.EventsTotal += r.Events
		s.SimNSTotal += r.SimNS
		if i == 0 {
			s.Shards = r.Shards
		} else if r.Shards != s.Shards {
			s.Shards = 0 // mixed sweep: no single meaningful count
		}
	}
	if s.WallMSTotal > 0 {
		s.EventsPerSec = float64(s.EventsTotal) / (s.WallMSTotal / 1e3)
		s.SimNSPerWallMS = s.SimNSTotal / s.WallMSTotal
	}
	return s
}

// WriteJSON emits the log as indented JSON: {"records": [...], "summary":
// {...}}. The format is documented in EXPERIMENTS.md ("Simulator
// performance log").
func (b *BenchLog) WriteJSON(w io.Writer) error {
	summary := b.Summary()
	b.mu.Lock()
	defer b.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Records []BenchRecord `json:"records"`
		Summary BenchSummary  `json:"summary"`
	}{Records: b.Records, Summary: summary})
}
