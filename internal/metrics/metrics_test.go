package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"rvma/internal/sim"
)

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(1)
	r.CounterFrom("c", new(uint64))
	r.Gauge("g").Set(3)
	r.Histogram("h").Observe(5)
	r.AddCollector(func() { t.Fatal("collector on nil registry ran") })
	r.Collect()
	r.EnableSpans()
	r.EnableTimeline(10)
	sp := r.BeginSpan(0, SpanKey{}, "x", 0)
	if sp != nil {
		t.Fatalf("BeginSpan on nil registry = %v, want nil", sp)
	}
	sp.Stage(1, "a")
	sp.End(2)
	if err := r.WriteJSON(&bytes.Buffer{}, 0); err == nil {
		t.Fatal("WriteJSON on nil registry should error")
	}
	var tl *Timeline
	tl.Slice(0, "s", "n", 0, 1)
	tl.Counter(0, "c", 0, 1)
	tl.Instant(0, "s", "n", 0)
	if err := tl.WritePerfetto(&bytes.Buffer{}); err == nil {
		t.Fatal("WritePerfetto on nil timeline should error")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sent")
	c.Add(2)
	c.Add(3)
	if got := r.Counter("sent").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth")
	g.Set(4)
	g.Add(-1)
	g.Add(10)
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge value = %v, want 2", got)
	}
	if got := g.Max(); got != 13 {
		t.Fatalf("gauge max = %v, want 13", got)
	}
}

// A counter read from sources reports their values when it is read, not
// when they were registered; snapshots repeat byte for byte; and MergeFrom
// adds the sources' sum exactly.
func TestCounterFromSources(t *testing.T) {
	var a, b uint64
	r := NewRegistry()
	r.CounterFrom("events", &a)
	r.CounterFrom("events", &b)
	r.Counter("events").Add(1)
	a, b = 5, 7
	if got := r.Counter("events").Value(); got != 13 {
		t.Fatalf("counter = %d, want 13 (1 added + sources 5 and 7)", got)
	}
	snap := func() string {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := snap()
	if !strings.Contains(first, `"events": 13`) {
		t.Fatalf("snapshot lacks the source sum:\n%s", first)
	}
	if second := snap(); second != first {
		t.Fatalf("two snapshots differ:\n%s\n---\n%s", first, second)
	}
	a++
	if !strings.Contains(snap(), `"events": 14`) {
		t.Fatal("snapshot did not read the source's new value")
	}

	dst := NewRegistry()
	dst.Counter("events").Add(100)
	dst.MergeFrom(r)
	dst.MergeFrom(r)
	if got := dst.Counter("events").Value(); got != 128 {
		t.Fatalf("merged counter = %d, want 100 + 2*14", got)
	}
	a = 0 // the merge added the value at the fold; dst keeps no source
	if got := dst.Counter("events").Value(); got != 128 {
		t.Fatalf("merged counter followed the source after the fold: %d", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram stats should all be zero")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(700)
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 700 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 700", q, got)
		}
	}
	if h.Mean() != 700 || h.Min() != 700 || h.Max() != 700 {
		t.Fatalf("single-sample stats = mean %v min %v max %v, want 700",
			h.Mean(), h.Min(), h.Max())
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	big := overflowBound * 8
	h.Observe(big)
	h.Observe(big * 2)
	if got := h.Quantile(0.99); got < big || got > big*2 {
		t.Fatalf("overflow Quantile(0.99) = %v, want within [%v, %v] (clamped to observed range)", got, big, big*2)
	}
	if got := h.Quantile(1); got != big*2 {
		t.Fatalf("overflow Quantile(1) = %v, want exact max %v", got, big*2)
	}
	if got := h.Quantile(0.25); got < big || got > big*2 {
		t.Fatalf("overflow Quantile(0.25) = %v, want within [%v, %v]", got, big, big*2)
	}
	if h.Max() != big*2 {
		t.Fatalf("overflow max = %v, want %v", h.Max(), big*2)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative sample should clamp to 0, got min %v max %v", h.Min(), h.Max())
	}
}

func TestHistogramQuantilesMonotone(t *testing.T) {
	var h Histogram
	for v := 1.0; v <= 4096; v *= 2 {
		for i := 0; i < 10; i++ {
			h.Observe(v)
		}
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v; quantiles must be monotone", q, got, prev)
		}
		if got < h.Min() || got > h.Max() {
			t.Fatalf("Quantile(%v) = %v outside [min=%v, max=%v]", q, got, h.Min(), h.Max())
		}
		prev = got
	}
	if med := h.Quantile(0.5); med < 32 || med > 128 {
		t.Fatalf("median of geometric samples = %v, want within [32, 128]", med)
	}
}

// TestBucketIndexBoundaries pins the sample-to-bucket invariant that
// Quantile interpolation relies on: every sample lands in a bucket whose
// bounds contain it. Values one ulp below a power of two are the
// adversarial case — math.Log2 rounds them up to the exact exponent once
// the exponent is large enough, which used to file them one bucket high.
func TestBucketIndexBoundaries(t *testing.T) {
	for e := 1; e < histBuckets-2; e++ {
		exact := math.Exp2(float64(e))
		for _, v := range []float64{exact, math.Nextafter(exact, 0), math.Nextafter(exact, math.Inf(1))} {
			if v >= overflowBound {
				continue
			}
			i := bucketIndex(v)
			lo, hi := bucketBounds(i)
			if v < lo || v >= hi {
				t.Fatalf("bucketIndex(%v) = %d with bounds [%v, %v); sample outside its bucket", v, i, lo, hi)
			}
		}
	}
}

// TestHistogramSparseTailQuantilesMonotone is the regression test for the
// p99.9-on-sparse-tail bug: a dense low bucket plus a single far-tail
// sample one ulp below a power of two. The tail sample used to be filed
// above its covering bucket, so interpolating a quantile inside the tail
// bucket returned the bucket's lower bound — a value above the observed
// max, making Quantile(0.999) > Quantile(1).
func TestHistogramSparseTailQuantilesMonotone(t *testing.T) {
	adversarial := [][]float64{
		{math.Nextafter(1<<40, 0)},
		{math.Nextafter(1<<35, 0), math.Nextafter(1<<40, 0)},
		{1<<20 + 1, math.Nextafter(1<<41, 0)},
	}
	for _, tail := range adversarial {
		var h Histogram
		for i := 0; i < 500; i++ {
			h.Observe(3)
		}
		for _, v := range tail {
			h.Observe(v)
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.995, 0.998, 0.999, 0.9995, 0.9999, 1} {
			got := h.Quantile(q)
			if got < prev {
				t.Fatalf("tail %v: Quantile(%v) = %v < previous %v; quantiles must be monotone", tail, q, got, prev)
			}
			if got < h.Min() || got > h.Max() {
				t.Fatalf("tail %v: Quantile(%v) = %v outside [min=%v, max=%v]", tail, q, got, h.Min(), h.Max())
			}
			prev = got
		}
		if got := h.Quantile(1); got != h.Max() {
			t.Fatalf("tail %v: Quantile(1) = %v, want exact max %v", tail, got, h.Max())
		}
	}
}

func TestSpanStages(t *testing.T) {
	r := NewRegistry()
	r.EnableSpans()
	key := SpanKey{Node: 3, ID: 7}
	sp := r.BeginSpan(sim.FromNanos(100), key, "rvma.put", 3)
	if sp == nil {
		t.Fatal("BeginSpan returned nil with spans enabled")
	}
	if r.Span(key) != sp {
		t.Fatal("Span lookup did not find the open span")
	}
	if r.OpenSpans() != 1 {
		t.Fatalf("OpenSpans = %d, want 1", r.OpenSpans())
	}
	sp.Stage(sim.FromNanos(150), "host_post")
	sp.SetNode(5)
	sp.Stage(sim.FromNanos(400), "wire")
	sp.End(sim.FromNanos(400))
	if r.OpenSpans() != 0 {
		t.Fatalf("OpenSpans after End = %d, want 0", r.OpenSpans())
	}
	if r.Span(key) != nil {
		t.Fatal("Span lookup after End should be nil")
	}
	if got := r.Histogram("span.rvma.put/host_post").Mean(); got != 50 {
		t.Fatalf("host_post mean = %v ns, want 50", got)
	}
	if got := r.Histogram("span.rvma.put/wire").Mean(); got != 250 {
		t.Fatalf("wire mean = %v ns, want 250", got)
	}
	if got := r.Histogram("span.rvma.put/total").Mean(); got != 300 {
		t.Fatalf("total mean = %v ns, want 300", got)
	}

	var buf bytes.Buffer
	r.FprintSpans(&buf)
	out := buf.String()
	for _, want := range []string{"span.rvma.put/host_post", "span.rvma.put/total", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FprintSpans output missing %q:\n%s", want, out)
		}
	}
}

func TestSpansDisabledByDefault(t *testing.T) {
	r := NewRegistry()
	if r.SpansEnabled() {
		t.Fatal("spans should be disabled by default")
	}
	if sp := r.BeginSpan(0, SpanKey{ID: 1}, "x", 0); sp != nil {
		t.Fatal("BeginSpan should return nil with spans disabled")
	}
}

func TestWriteJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("fabric.drops").Add(2)
	r.Gauge("nic.occupancy").Set(1.5)
	h := r.Histogram("lat")
	h.Observe(10)
	h.Observe(30)
	collected := false
	r.AddCollector(func() { collected = true; r.Gauge("sampled").Set(9) })

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, sim.FromNanos(500)); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !collected {
		t.Fatal("WriteJSON did not run collectors")
	}
	var snap struct {
		SimTimeNs  float64                                 `json:"sim_time_ns"`
		Counters   map[string]uint64                       `json:"counters"`
		Gauges     map[string]struct{ Value, Max float64 } `json:"gauges"`
		Histograms map[string]struct {
			Count    uint64
			Mean     float64
			P50, P99 float64
			Min, Max float64
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.SimTimeNs != 500 {
		t.Fatalf("sim_time_ns = %v, want 500", snap.SimTimeNs)
	}
	if snap.Counters["fabric.drops"] != 2 {
		t.Fatalf("counters = %v, want fabric.drops=2", snap.Counters)
	}
	if snap.Gauges["sampled"].Value != 9 {
		t.Fatalf("sampled gauge = %v, want 9", snap.Gauges["sampled"])
	}
	lat := snap.Histograms["lat"]
	if lat.Count != 2 || lat.Mean != 20 || lat.Min != 10 || lat.Max != 30 {
		t.Fatalf("lat histogram = %+v", lat)
	}
}

func TestTimelinePerfetto(t *testing.T) {
	r := NewRegistry()
	r.EnableSpans()
	r.EnableTimeline(0)
	sp := r.BeginSpan(sim.Microsecond, SpanKey{Node: 0, ID: 1}, "rvma.put", 0)
	sp.Stage(2*sim.Microsecond, "host_post")
	sp.SetNode(1)
	sp.Stage(5*sim.Microsecond, "wire")
	sp.End(5 * sim.Microsecond)
	r.Timeline().Counter(0, "queue_depth", 3*sim.Microsecond, 4)
	r.Timeline().Instant(1, "fabric", "drop", 4*sim.Microsecond)

	var buf bytes.Buffer
	if err := r.Timeline().WritePerfetto(&buf); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("traceEvents is empty")
	}
	var slices, meta, counters, instants int
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			if ev.Name == "host_post" {
				if ev.TS != 1 || ev.Dur != 1 || ev.PID != 0 {
					t.Fatalf("host_post slice = %+v, want ts=1 dur=1 pid=0", ev)
				}
			}
			if ev.Name == "wire" && ev.PID != 1 {
				t.Fatalf("wire slice pid = %d, want 1 (after SetNode)", ev.PID)
			}
		case "M":
			meta++
		case "C":
			counters++
		case "i":
			instants++
		}
	}
	if slices != 2 || counters != 1 || instants != 1 || meta == 0 {
		t.Fatalf("event mix: slices=%d meta=%d counters=%d instants=%d", slices, meta, counters, instants)
	}
}

func TestTimelineCapDrops(t *testing.T) {
	r := NewRegistry()
	r.EnableTimeline(3)
	tl := r.Timeline()
	for i := 0; i < 10; i++ {
		tl.Counter(0, "x", sim.Time(i), float64(i))
	}
	rec, dropped := tl.Events()
	if rec != 3 {
		t.Fatalf("recorded = %d, want cap of 3", rec)
	}
	if dropped != 7 {
		t.Fatalf("dropped = %d, want 7", dropped)
	}
}

// TestWriteJSONSortedStable pins the exporter's byte-stability contract:
// keys appear in ascending order regardless of insertion order, and two
// writes of the same registry produce identical bytes. The same-seed
// determinism test in internal/harness compares snapshots verbatim, so
// this ordering is load-bearing, not cosmetic.
func TestWriteJSONSortedStable(t *testing.T) {
	r := NewRegistry()
	// Scrambled insertion order on purpose.
	r.Counter("zeta").Add(1)
	r.Counter("alpha").Add(2)
	r.Counter("mid").Add(3)
	r.Gauge("z.g").Set(1)
	r.Gauge("a.g").Set(2)
	r.Histogram("z.h").Observe(5)
	r.Histogram("a.h").Observe(7)

	var first, second bytes.Buffer
	if err := r.WriteJSON(&first, sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&second, sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("two snapshots of the same registry differ")
	}

	out := first.String()
	for _, ordered := range [][2]string{
		{`"alpha"`, `"mid"`}, {`"mid"`, `"zeta"`},
		{`"a.g"`, `"z.g"`}, {`"a.h"`, `"z.h"`},
	} {
		if strings.Index(out, ordered[0]) >= strings.Index(out, ordered[1]) {
			t.Errorf("%s should appear before %s in snapshot:\n%s", ordered[0], ordered[1], out)
		}
	}

	// The export must remain parseable JSON with the documented sections.
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(first.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, key := range []string{"sim_time_ns", "counters", "gauges", "histograms", "spans_open"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("snapshot missing %q section", key)
		}
	}
}

// TestHistogramSnapshotRoundTrip observes a known distribution — including
// a sample past the overflow bucket's lower bound — exports a JSON
// snapshot, parses it back, and checks every exported field against the
// live histogram, with Quantile(0)/Quantile(1) pinned to exact min/max.
func TestHistogramSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rt")
	samples := []float64{0.25, 3, 70, 900, overflowBound * 4}
	sum := 0.0
	for _, v := range samples {
		h.Observe(v)
		sum += v
	}
	if got := h.Quantile(0); got != 0.25 {
		t.Fatalf("Quantile(0) = %v, want exact min 0.25", got)
	}
	if got := h.Quantile(1); got != overflowBound*4 {
		t.Fatalf("Quantile(1) = %v, want exact max %v", got, overflowBound*4)
	}
	if h.buckets[histBuckets-1] != 1 {
		t.Fatalf("overflow bucket count = %d, want 1", h.buckets[histBuckets-1])
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, 7*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Histograms map[string]struct {
			Count uint64  `json:"count"`
			Mean  float64 `json:"mean"`
			P50   float64 `json:"p50"`
			P90   float64 `json:"p90"`
			P99   float64 `json:"p99"`
			Min   float64 `json:"min"`
			Max   float64 `json:"max"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	got, ok := snap.Histograms["rt"]
	if !ok {
		t.Fatalf("snapshot missing histogram %q:\n%s", "rt", buf.String())
	}
	if got.Count != uint64(len(samples)) {
		t.Errorf("count = %d, want %d", got.Count, len(samples))
	}
	if got.Min != 0.25 || got.Max != overflowBound*4 {
		t.Errorf("min/max = %v/%v, want 0.25/%v", got.Min, got.Max, overflowBound*4)
	}
	if got.Sum != sum {
		t.Errorf("sum = %v, want %v", got.Sum, sum)
	}
	if math.Abs(got.Mean-sum/float64(len(samples))) > 1e-9 {
		t.Errorf("mean = %v, want %v", got.Mean, sum/float64(len(samples)))
	}
	if got.P50 != h.Quantile(0.50) || got.P90 != h.Quantile(0.90) || got.P99 != h.Quantile(0.99) {
		t.Errorf("exported quantiles %v/%v/%v differ from live %v/%v/%v",
			got.P50, got.P90, got.P99,
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
	}
	// Overflow-bucket quantile queries must stay inside the observed range
	// even though the bucket itself is unbounded above.
	if got.P99 < 0.25 || got.P99 > overflowBound*4 {
		t.Errorf("p99 = %v escapes observed range [0.25, %v]", got.P99, overflowBound*4)
	}
}

// TestPerfettoZeroSpans asserts a run that recorded nothing still exports
// a valid trace: "traceEvents" must be an empty array, never null —
// ui.perfetto.dev rejects a null array.
func TestPerfettoZeroSpans(t *testing.T) {
	r := NewRegistry()
	r.EnableSpans()
	r.EnableTimeline(16)
	var buf bytes.Buffer
	if err := r.Timeline().WritePerfetto(&buf); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Fatalf("zero-span trace should serialize traceEvents as [], got:\n%s", buf.String())
	}
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("zero-span trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if f.TraceEvents == nil {
		t.Fatal("traceEvents unmarshals to nil, want empty array")
	}
	if len(f.TraceEvents) != 0 {
		t.Fatalf("traceEvents has %d records, want 0", len(f.TraceEvents))
	}
}

// TestPerfettoOnlySuppressed asserts a run whose every event was dropped
// at the cap exports the same valid empty-array trace, with the drops
// accounted in otherData.
func TestPerfettoOnlySuppressed(t *testing.T) {
	tl := &Timeline{cap: 0, tids: make(map[tidKey]int), nextTID: 1}
	tl.Slice(3, "rvma.put", "wire", sim.Microsecond, sim.Microsecond)
	tl.Instant(3, "rvma.put", "nack", 2*sim.Microsecond)
	tl.Counter(3, "queue", 3*sim.Microsecond, 7)
	if rec, drop := tl.Events(); rec != 0 || drop != 3 {
		t.Fatalf("recorded/dropped = %d/%d, want 0/3", rec, drop)
	}
	var buf bytes.Buffer
	if err := tl.WritePerfetto(&buf); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   struct {
			Dropped uint64 `json:"dropped_events"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("only-suppressed trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if f.TraceEvents == nil || len(f.TraceEvents) != 0 {
		t.Fatalf("traceEvents = %v, want empty array", f.TraceEvents)
	}
	if f.OtherData.Dropped != 3 {
		t.Fatalf("dropped_events = %d, want 3", f.OtherData.Dropped)
	}
}
