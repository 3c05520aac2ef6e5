// Package metrics provides the typed observability registry for simulation
// runs: named counters, gauges and log-bucketed latency histograms, a span
// layer that follows each message through its pipeline stages, and two
// exporters — a JSON snapshot and a Chrome/Perfetto trace-event timeline.
//
// The registry complements package trace: trace holds the bounded event
// log and time series a human reads after one run; metrics holds the
// distributions (p50/p90/p99/max) the experiment harness needs to explain
// *why* a motif run is slow rather than just *that* it is.
//
// The models' event counts live in their own Stats fields; a registry
// reads them as counter sources (CounterFrom) when a snapshot is taken, so
// a counter costs nothing per event. Every other hook follows the
// nil-receiver convention: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram or *Span are no-ops, so a component with no registry attached
// pays exactly one nil check on the hot path. The simulation is
// single-goroutine (all model code runs on the engine), so the registry
// needs no locking.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"rvma/internal/sim"
)

// Registry collects metrics for one simulation (typically one experiment
// cell: a motif x transport x network point).
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// collectors are sampling callbacks (link utilization, queue depths)
	// run by Collect before a snapshot is exported.
	collectors []func()

	spans        map[SpanKey]*Span
	spansEnabled bool
	spansOpened  uint64
	spansClosed  uint64
	spanObs      SpanObserver

	timeline *Timeline
}

// NewRegistry returns an empty registry with spans and timeline disabled.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    make(map[SpanKey]*Span),
	}
}

// Counter returns (creating if needed) the named monotonic counter.
// A nil registry returns a nil *Counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFrom registers src, an event count a model layer keeps in its own
// Stats, as a source of the named counter. The counter reads its sources
// when it is read (a snapshot, or MergeFrom folding a shard's registry), so
// the layer's own increment is the only per-event work. Sources of one
// name sum.
func (r *Registry) CounterFrom(name string, src *uint64) {
	if r == nil {
		return
	}
	c := r.Counter(name)
	c.srcs = append(c.srcs, src)
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// AddCollector registers a sampling callback run by Collect. Components
// use collectors for state that is cheap to read on demand but expensive
// to track per event (resource utilization, queue depths).
func (r *Registry) AddCollector(fn func()) {
	if r == nil {
		return
	}
	r.collectors = append(r.collectors, fn)
}

// Collect runs every registered collector, refreshing sampled gauges.
func (r *Registry) Collect() {
	if r == nil {
		return
	}
	for _, fn := range r.collectors {
		fn()
	}
}

// Counter is a monotonically increasing uint64 metric: what Add added,
// plus the current values of its CounterFrom sources.
type Counter struct {
	v    uint64
	srcs []*uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.v += delta
}

// Value returns the counter's current value.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	v := c.v
	for _, src := range c.srcs {
		v += *src
	}
	return v
}

// Gauge is a point-in-time float64 metric that also tracks its maximum.
type Gauge struct {
	v   float64
	max float64
	set bool
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
}

// Add adjusts the gauge by delta (occupancy-style up/down tracking).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.Set(g.v + delta)
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the largest value the gauge has held.
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	return g.max
}

// histBuckets is the bucket count: bucket 0 holds values < 1, buckets
// 1..histBuckets-2 hold [2^(i-1), 2^i), and the last bucket is the
// overflow for everything >= 2^(histBuckets-3).
const histBuckets = 44

// overflowBound is the lower bound of the overflow bucket. With values in
// nanoseconds this is ~2^42 ns (about 73 simulated minutes) — far beyond
// any latency in this repository, so the overflow bucket only fills when a
// caller records something pathological (which the tests exercise).
const overflowBound = float64(1 << (histBuckets - 3))

// Histogram is a log-bucketed distribution with exact count/sum/min/max.
// Latency histograms record nanoseconds; depth histograms record counts.
//
// Durations recorded via ObserveTime accumulate in sumPS, an integer
// picosecond sum, rather than the float sum: integer addition is
// associative, so the total — and every snapshot value derived from it —
// is identical no matter how samples were partitioned across shards and
// merged back. Observe keeps the float sum for dimensionless samples
// (hop counts, depths), which are whole numbers in practice and therefore
// also order-exact.
type Histogram struct {
	count   uint64
	sum     float64
	sumPS   int64
	min     float64
	max     float64
	buckets [histBuckets]uint64
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
}

// ObserveTime records a simulated duration in nanoseconds. The duration
// accumulates into the integer picosecond sum (see the type comment), so
// time totals survive any merge order exactly.
func (h *Histogram) ObserveTime(d sim.Time) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	v := d.Nanoseconds()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sumPS += int64(d)
	h.buckets[bucketIndex(v)]++
}

// total returns the combined sample sum in nanoseconds (float samples plus
// the integer picosecond accumulator).
func (h *Histogram) total() float64 { return h.sum + float64(h.sumPS)/1000 }

// Merge folds every sample of o into h. Buckets, counts and sums add;
// min/max widen. The harness merges per-worker-cell histograms in a fixed
// canonical order, so merged sums (floating point, order-sensitive) are
// byte-identical at any worker count; duration sums are integer
// picoseconds and exact in any order.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	h.sumPS += o.sumPS
	for i := range o.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// bucketIndex maps a sample to its bucket. Log2 of a value one ulp below
// an exact power of two can round up to the integer exponent (the log's
// relative error exceeds the float spacing once the exponent is large
// enough), which would file the sample one bucket high — a bucket whose
// lower bound exceeds the sample. Quantile interpolation assumes every
// sample lies inside its bucket's bounds, so the index is pinned back to
// the covering bucket before use.
func bucketIndex(v float64) int {
	if v < 1 {
		return 0
	}
	if v >= overflowBound {
		return histBuckets - 1
	}
	i := 1 + int(math.Floor(math.Log2(v)))
	if i >= histBuckets-1 {
		i = histBuckets - 2
	}
	if lo, _ := bucketBounds(i); v < lo {
		i--
	} else if _, hi := bucketBounds(i); v >= hi && i < histBuckets-2 {
		i++
	}
	return i
}

// bucketBounds returns the value range bucket i covers.
func bucketBounds(i int) (lo, hi float64) {
	switch {
	case i == 0:
		return 0, 1
	case i >= histBuckets-1:
		return overflowBound, overflowBound
	default:
		return math.Exp2(float64(i - 1)), math.Exp2(float64(i))
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.total() / float64(h.count)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile returns the q-th quantile (0..1) estimated by linear
// interpolation within the matching log bucket, clamped to the observed
// min/max so single-sample and overflow-bucket queries stay exact.
// An empty histogram returns 0.
//
// Monotonicity contract: Quantile(q1) <= Quantile(q2) for q1 < q2. Every
// bucket's interpolation interval is clamped into [min, max], which keeps
// the per-bucket intervals ordered (bucket bounds are ordered and the
// clamp is monotone), and interpolation within a bucket is increasing in
// the rank — so a higher quantile can never resolve to a smaller value,
// even when the tail bucket holds a single sample far below its upper
// bound (the p99.9-on-sparse-tail case).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= rank {
			lo, hi := bucketBounds(i)
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max || i == histBuckets-1 {
				hi = h.max
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - prev) / float64(c)
			v := lo + (hi-lo)*frac
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// snapshot is the JSON export shape. The name-keyed sections are
// pre-marshaled with explicitly sorted keys: snapshot bytes are compared
// verbatim by the same-seed determinism regression test, so stable
// ordering is a guarantee of this exporter, not an accident of how
// encoding/json happens to serialize maps.
type snapshot struct {
	SimTimeNs  float64         `json:"sim_time_ns"`
	Counters   json.RawMessage `json:"counters"`
	Gauges     json.RawMessage `json:"gauges"`
	Histograms json.RawMessage `json:"histograms"`
	SpansOpen  uint64          `json:"spans_open"`
}

// sortedObject marshals m as a JSON object with its keys in ascending
// order.
func sortedObject[V any](m map[string]V) (json.RawMessage, error) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			buf.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		buf.Write(kb)
		buf.WriteByte(':')
		vb, err := json.Marshal(m[k])
		if err != nil {
			return nil, err
		}
		buf.Write(vb)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

type gaugeJSON struct {
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

type histogramJSON struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
}

// WriteJSON runs the collectors and writes the full registry state as one
// indented JSON object. now is the simulated time of the snapshot.
func (r *Registry) WriteJSON(w io.Writer, now sim.Time) error {
	if r == nil {
		return fmt.Errorf("metrics: nil registry")
	}
	r.Collect()
	counters := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]gaugeJSON, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = gaugeJSON{Value: g.Value(), Max: g.Max()}
	}
	hists := make(map[string]histogramJSON, len(r.hists))
	for name, h := range r.hists {
		hists[name] = histogramJSON{
			Count: h.Count(), Mean: h.Mean(),
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
			P999: h.Quantile(0.999),
			Min:  h.Min(), Max: h.Max(), Sum: h.total(),
		}
	}
	s := snapshot{
		SimTimeNs: now.Nanoseconds(),
		SpansOpen: r.spansOpened - r.spansClosed,
	}
	var err error
	if s.Counters, err = sortedObject(counters); err != nil {
		return err
	}
	if s.Gauges, err = sortedObject(gauges); err != nil {
		return err
	}
	if s.Histograms, err = sortedObject(hists); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// MergeFrom folds every counter, histogram and gauge of o into r. The
// sharded harness gives each shard its own registry (single-writer during
// the run) and folds them into the primary in shard order afterwards (a
// counter adds its value at the fold, sources included); with integer
// counter/picosecond sums and commutative min/max widening, the merged
// registry is byte-identical at any shard count. Span state is not merged
// — spans are disabled on sharded runs.
func (r *Registry) MergeFrom(o *Registry) {
	if r == nil || o == nil {
		return
	}
	for name, c := range o.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, h := range o.hists {
		r.Histogram(name).Merge(h)
	}
	for name, g := range o.gauges {
		if !g.set {
			continue
		}
		dst := r.Gauge(name)
		dst.Set(g.v)
		if g.max > dst.max {
			dst.max = g.max
		}
	}
}

// HistogramNames returns the sorted names of all histograms with samples.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.hists))
	for n, h := range r.hists {
		if h.count > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// FprintHistograms writes a human-readable latency table of every
// histogram whose name starts with prefix: count, mean, p50, p99, p99.9
// and max, formatted as durations (histogram values are nanoseconds).
func (r *Registry) FprintHistograms(w io.Writer, prefix string) {
	if r == nil {
		return
	}
	names := r.HistogramNames()
	rows := 0
	for _, n := range names {
		if len(n) >= len(prefix) && n[:len(prefix)] == prefix {
			rows++
		}
	}
	if rows == 0 {
		return
	}
	fmt.Fprintf(w, "%-36s %9s %12s %12s %12s %12s %12s\n",
		"stage", "count", "mean", "p50", "p99", "p99.9", "max")
	for _, n := range names {
		if len(n) < len(prefix) || n[:len(prefix)] != prefix {
			continue
		}
		h := r.hists[n]
		fmt.Fprintf(w, "%-36s %9d %12s %12s %12s %12s %12s\n",
			n, h.Count(),
			fmtNanos(h.Mean()), fmtNanos(h.Quantile(0.5)),
			fmtNanos(h.Quantile(0.99)), fmtNanos(h.Quantile(0.999)),
			fmtNanos(h.Max()))
	}
}

// fmtNanos renders a nanosecond value as a human-scale duration.
func fmtNanos(ns float64) string {
	return sim.FromNanos(ns).String()
}
