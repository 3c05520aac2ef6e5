// ShardSet: telemetry for sharded runs. One Sampler per shard ticks the
// same sim-time grid on its own engine (ticks are daemon events, and the
// shard group's drain rule makes "tick at t executes iff t precedes the
// final model time" hold globally, exactly as on one engine), each
// probe reading only state its shard owns. The merged export folds the
// per-shard columns with a declared merge kind and renders through the
// ordinary Sampler writers, so the CSV bytes are identical at any shard
// count — including shards=1, which is the comparison baseline the
// determinism tests hold every other count to.
package telemetry

import (
	"fmt"
	"io"

	"rvma/internal/sim"
)

// ColKind declares how a column's per-shard samples merge into one value.
type ColKind int

const (
	// KindSum adds the per-shard samples. Use for integer-valued counters
	// and populations; integer addition is exact in any order.
	KindSum ColKind = iota
	// KindSumPS adds per-shard samples that are integer picosecond
	// quantities (probes return float64(sim.Time)); the merged value is
	// divided by 1000 at export so the column reads in nanoseconds like
	// a one-sampler column. Summing in integer picoseconds first
	// avoids the order-dependence of float nanosecond addition.
	KindSumPS
	// KindMax takes the maximum across shards (worst-queue style columns).
	KindMax
	// KindLocal columns live on exactly one shard (registered via
	// RegisterLocal); the merged column is that shard's, verbatim.
	KindLocal
)

// ShardSet manages one Sampler per shard plus the merge schema.
type ShardSet struct {
	samplers []*Sampler
	kinds    map[string]ColKind
	counters map[string][][]*uint64 // CounterFrom columns' sources, per shard
}

// NewShardSet builds one unstarted sampler per shard of g, each bound to
// its shard's engine, all on the same tick interval.
func NewShardSet(g *sim.ShardGroup, interval sim.Time) *ShardSet {
	ss := &ShardSet{
		samplers: make([]*Sampler, g.Shards()),
		kinds:    make(map[string]ColKind),
		counters: make(map[string][][]*uint64),
	}
	for i := range ss.samplers {
		ss.samplers[i] = New(g.Shard(i), interval)
	}
	return ss
}

// Shards returns the number of per-shard samplers.
func (ss *ShardSet) Shards() int {
	if ss == nil {
		return 0
	}
	return len(ss.samplers)
}

// Sampler returns the given shard's sampler, for callers that hook its
// sample ticks (OnSample).
func (ss *ShardSet) Sampler(shard int) *Sampler { return ss.samplers[shard] }

// Register adds a cross-shard column: probe(shard) must read only state
// the given shard owns, and the per-shard samples merge per kind.
func (ss *ShardSet) Register(name string, kind ColKind, probe func(shard int) float64) {
	if ss == nil {
		return
	}
	if kind == KindLocal {
		panic(fmt.Sprintf("telemetry: column %q: use RegisterLocal for single-shard columns", name))
	}
	ss.kinds[name] = kind
	for i, s := range ss.samplers {
		i := i
		s.Register(name, func() float64 { return probe(i) })
	}
}

// CounterFrom adds src, an event count a model layer keeps in its own
// Stats and that the given shard owns, to the KindSum column name: each
// shard samples the sum of its sources. The first call for a name
// registers the column on every shard.
func (ss *ShardSet) CounterFrom(name string, shard int, src *uint64) {
	if ss == nil {
		return
	}
	srcs, ok := ss.counters[name]
	if !ok {
		srcs = make([][]*uint64, len(ss.samplers))
		ss.counters[name] = srcs
		ss.Register(name, KindSum, func(shard int) float64 {
			var total uint64
			for _, p := range srcs[shard] {
				total += *p
			}
			return float64(total)
		})
	}
	srcs[shard] = append(srcs[shard], src)
}

// RegisterLocal adds a column sampled only on its owning shard (per-node
// or per-switch series whose state has a single owner).
func (ss *ShardSet) RegisterLocal(name string, owner int, probe Probe) {
	if ss == nil {
		return
	}
	ss.kinds[name] = KindLocal
	ss.samplers[owner].Register(name, probe)
}

// Start starts every per-shard sampler. Call after all registration, and
// before the group runs.
func (ss *ShardSet) Start() {
	if ss == nil {
		return
	}
	for _, s := range ss.samplers {
		s.Start()
	}
}

// Samples returns the number of stored rows (identical on every shard).
func (ss *ShardSet) Samples() int {
	if ss == nil || len(ss.samplers) == 0 {
		return 0
	}
	return ss.samplers[0].Samples()
}

// Ticks returns the rows ever recorded, including downsampled ones.
func (ss *ShardSet) Ticks() uint64 {
	if ss == nil || len(ss.samplers) == 0 {
		return 0
	}
	return ss.samplers[0].Ticks()
}

// merged folds the per-shard samplers into one synthetic Sampler holding
// the merged columns, so the ordinary writers render it. Every shard must
// have recorded the identical time grid — samplers tick the same interval,
// compress at the same row bound, and daemon semantics are global, so a
// mismatch means a probe perturbed the model and is reported as an error.
func (ss *ShardSet) merged() (*Sampler, error) {
	if ss == nil || len(ss.samplers) == 0 {
		return nil, fmt.Errorf("telemetry: empty shard set")
	}
	base := ss.samplers[0]
	for k, s := range ss.samplers[1:] {
		if len(s.times) != len(base.times) {
			return nil, fmt.Errorf("telemetry: shard %d recorded %d rows, shard 0 %d — tick grids diverged",
				k+1, len(s.times), len(base.times))
		}
		for r := range s.times {
			if s.times[r] != base.times[r] {
				return nil, fmt.Errorf("telemetry: shard %d row %d at %v, shard 0 at %v — tick grids diverged",
					k+1, r, s.times[r], base.times[r])
			}
		}
	}
	m := &Sampler{interval: base.interval, maxSamples: base.maxSamples, ticks: base.ticks}
	m.times = append([]sim.Time(nil), base.times...)
	colIdx := make(map[string]int)
	for _, s := range ss.samplers {
		for i, name := range s.names {
			kind, ok := ss.kinds[name]
			if !ok {
				return nil, fmt.Errorf("telemetry: column %q has no merge kind (registered directly on a shard sampler?)", name)
			}
			j, seen := colIdx[name]
			if !seen {
				colIdx[name] = len(m.names)
				m.names = append(m.names, name)
				m.cols = append(m.cols, append([]float64(nil), s.cols[i]...))
				continue
			}
			if kind == KindLocal {
				return nil, fmt.Errorf("telemetry: local column %q registered on multiple shards", name)
			}
			dst := m.cols[j]
			for r, v := range s.cols[i] {
				switch kind {
				case KindMax:
					if v > dst[r] {
						dst[r] = v
					}
				default: // KindSum, KindSumPS
					dst[r] += v
				}
			}
		}
	}
	for name, j := range colIdx {
		if ss.kinds[name] == KindSumPS {
			col := m.cols[j]
			for r := range col {
				col[r] /= 1000
			}
		}
	}
	return m, nil
}

// WriteCSV emits the merged time-series in the exact format Sampler.WriteCSV
// uses.
func (ss *ShardSet) WriteCSV(w io.Writer) error {
	m, err := ss.merged()
	if err != nil {
		return err
	}
	return m.WriteCSV(w)
}

// WriteHeatmapCSV emits the merged heatmap matrix for columns with the
// given prefix.
func (ss *ShardSet) WriteHeatmapCSV(w io.Writer, prefix string) error {
	m, err := ss.merged()
	if err != nil {
		return err
	}
	return m.WriteHeatmapCSV(w, prefix)
}
