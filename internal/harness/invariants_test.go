package harness

import (
	"bytes"
	"cmp"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rvma/internal/attrib"
	"rvma/internal/fabric"
	"rvma/internal/ledger"
	"rvma/internal/metrics"
	"rvma/internal/motif"
	"rvma/internal/sim"
	"rvma/internal/telemetry"
)

// This file holds the whole-cell invariants no lower package can reach:
// each row of TestCellInvariants runs RunSpecs through RunCell with
// observers attached and asserts on the CellOutput and the observers'
// data. Built with -tags simdebug the rows run with the runtime invariants
// armed (lookahead, handoff order, safe horizon, span conservation).

// cellObservers selects what a row's cells attach besides the canonical
// ledger, which every cell records.
type cellObservers struct {
	attrib    bool // spans and an attribution collector (one shard only)
	profile   bool // the ledger's per-component host-time profile
	telemetry bool // the per-shard sampler at 10 µs
}

// observedCell is one cell run and what its observers recorded.
type observedCell struct {
	out     CellOutput
	ledger  *ledger.Ledger
	profile *ledger.ProfileReport
	attrib  attribReport
	series  []byte // merged time-series CSV
	heatmap []byte // per-switch utilization CSV
}

// attribReport is the part of the attribution report JSON (the rvmasim
// -attrib-out file) the conservation checks read.
type attribReport struct {
	Scopes []struct {
		Scope   string
		Retried uint64
		TotalPs int64 `json:"total_ps"`
		Stages  []stagePs
	}
	Tail []struct {
		Node    int
		ID      uint64
		TotalPs int64 `json:"total_ps"`
		Stages  []stagePs
	}
	Violations uint64
	Open       int
}

// stagePs is one stage's duration and wait in the report.
type stagePs struct {
	Stage  string
	DurPs  int64 `json:"dur_ps"`
	WaitPs int64 `json:"wait_ps"`
}

// runObservedCell runs rs with the observers with asks for.
func runObservedCell(t *testing.T, rs ledger.RunSpec, with cellObservers) observedCell {
	t.Helper()
	rec := ledger.NewCanonicalRecorder(ledger.Options{Profile: with.profile, Run: &rs})
	obs := Observers{Ledger: rec}
	if with.attrib {
		obs.Metrics = metrics.NewRegistry()
		obs.Metrics.EnableSpans()
		obs.Attrib = attrib.NewCollector(8)
	}
	var samples *telemetry.ShardSet
	if with.telemetry {
		obs.SampleEvery = 10 * sim.Microsecond
		obs.Attach = func(_ *motif.Cluster, s *telemetry.ShardSet) { samples = s }
	}
	c := observedCell{out: RunCell(rs, obs), ledger: rec.Finalize()}
	if c.out.Err != nil {
		t.Fatalf("%s shards=%d: %v", cellName(rs), rs.Shards, c.out.Err)
	}
	if with.profile {
		c.profile = rec.Profile()
	}
	var attribJSON, series, heat bytes.Buffer
	if with.attrib {
		if err := obs.Attrib.WriteJSON(&attribJSON); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(attribJSON.Bytes(), &c.attrib); err != nil {
			t.Fatal(err)
		}
	}
	if samples != nil {
		if err := cmp.Or(samples.WriteCSV(&series), samples.WriteHeatmapCSV(&heat, fabric.TelemetryHeatmapPrefix)); err != nil {
			t.Fatal(err)
		}
		c.series, c.heatmap = series.Bytes(), heat.Bytes()
	}
	return c
}

// TestCellInvariants runs the 64-node dragonfly/adaptive cell at 100 Gbps
// and seed 42 (rvmasim's -topology dragonfly -routing adaptive -nodes 64
// -gbps 100 -seed 42) under every observer and checks what each records.
func TestCellInvariants(t *testing.T) {
	o := DefaultOptions()
	o.Nodes = 64
	cell := func(m MotifName, transport string, shards int) ledger.RunSpec {
		rs := o.spec(m, transport, telemetryTestNet(), 100)
		rs.Shards = shards
		return rs
	}
	lossyIncast := cell(MotifIncast, "rvma", 1)
	lossyIncast.Drop, lossyIncast.Recover = 0.05, true
	canary := cell(MotifSweep3D, "rvma", 4)
	canary.UnsafeLookaheadScale = 20

	for _, row := range []struct {
		name  string
		specs []ledger.RunSpec
		with  cellObservers
		check func(t *testing.T, cells []observedCell)
	}{
		// Every message's stage durations sum exactly to its end-to-end
		// latency, lossless and under 5% loss with recovery, where the
		// retransmitted messages are attributed too.
		{"attribution", []ledger.RunSpec{cell(MotifSweep3D, "rvma", 1), cell(MotifSweep3D, "rdma", 1), lossyIncast},
			cellObservers{attrib: true}, func(t *testing.T, cells []observedCell) {
				var retried uint64
				for _, c := range cells {
					checkConservation(t, cellName(c.out.Spec), c.attrib)
				}
				for _, sc := range cells[2].attrib.Scopes {
					retried += sc.Retried
				}
				if retried == 0 {
					t.Errorf("%s: no retried message attributed", cellName(lossyIncast))
				}
			}},
		// The same cell run twice records the same ledger, and its
		// shard-planner profile names every component, busiest first.
		{"ledger-twice", []ledger.RunSpec{
			cell(MotifSweep3D, "rvma", 1), cell(MotifSweep3D, "rvma", 1),
			cell(MotifSweep3D, "rdma", 1), cell(MotifSweep3D, "rdma", 1),
		}, cellObservers{profile: true}, func(t *testing.T, cells []observedCell) {
			for i, c := range cells {
				checkProfile(t, c.out.Spec.Transport, c.profile)
				if i%2 == 1 {
					checkSameLedger(t, cellName(c.out.Spec)+" run twice", cells[i-1].ledger, c.ledger)
				}
			}
		}},
		// One and four shards record the same ledger and sample the same
		// time series, and the CSVs have the shapes the exporters promise.
		{"telemetry-shards", []ledger.RunSpec{
			cell(MotifSweep3D, "rvma", 1), cell(MotifSweep3D, "rvma", 4),
			cell(MotifSweep3D, "rdma", 1), cell(MotifSweep3D, "rdma", 4),
		}, cellObservers{telemetry: true}, func(t *testing.T, cells []observedCell) {
			for i := 0; i < len(cells); i += 2 {
				one, four := cells[i], cells[i+1]
				name := cellName(one.out.Spec)
				checkSameLedger(t, name+" at 1 and 4 shards", one.ledger, four.ledger)
				if !bytes.Equal(one.series, four.series) {
					t.Errorf("%s: time series differs at 4 shards:\n--- 1 shard ---\n%s\n--- 4 shards ---\n%s",
						name, firstDiffContext(one.series, four.series), firstDiffContext(four.series, one.series))
				}
				byTime := func(a, b string) int { return cmp.Compare(parseFloat(t, a), parseFloat(t, b)) }
				if header := checkCSV(t, name+" time series", one.series, "time_ns", byTime); !slices.IsSorted(header[1:]) {
					t.Errorf("%s time series: columns not sorted", name)
				}
				checkCSV(t, name+" heatmap", one.heatmap, "series", strings.Compare)
			}
		}},
		// Lookahead scaled 20x past the link latency lets handoffs land in
		// windows other shards already ran. A simdebug build refuses the
		// first such handoff; a release build diverges from the one-shard
		// run, and replay pins the first divergent event.
		{"lookahead-canary", []ledger.RunSpec{cell(MotifSweep3D, "rvma", 1)},
			cellObservers{}, func(t *testing.T, cells []observedCell) {
				if sim.DebugEnabled {
					msg := panicMessage(func() { runObservedCell(t, canary, cellObservers{}) })
					if !strings.Contains(msg, "violates lookahead") {
						t.Fatalf("broken lookahead under simdebug: panic %q, want a lookahead violation", msg)
					}
					return
				}
				checkPinned(t, "broken lookahead", cells[0].ledger, runObservedCell(t, canary, cellObservers{}).ledger)
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			cells := make([]observedCell, len(row.specs))
			for i, rs := range row.specs {
				cells[i] = runObservedCell(t, rs, row.with)
			}
			row.check(t, cells)
		})
	}
}

// checkConservation checks an attribution report: no violation counted, no
// span left open, at least one scope, every scope's and every tail
// operation's stage durations summing to its total, every stage's wait
// inside its duration, and the tail slowest first.
func checkConservation(t *testing.T, name string, rep attribReport) {
	t.Helper()
	if rep.Violations != 0 || rep.Open != 0 || len(rep.Scopes) == 0 {
		t.Errorf("%s: %d conservation violations, %d spans open, %d scopes; want 0, 0 and some",
			name, rep.Violations, rep.Open, len(rep.Scopes))
	}
	sum := func(stages []stagePs) (ps int64) {
		for _, st := range stages {
			ps += st.DurPs
		}
		return ps
	}
	for _, sc := range rep.Scopes {
		if got := sum(sc.Stages); got != sc.TotalPs {
			t.Errorf("%s/%s: stages sum to %d ps, end-to-end total %d ps", name, sc.Scope, got, sc.TotalPs)
		}
		for _, st := range sc.Stages {
			if st.WaitPs < 0 || st.WaitPs > st.DurPs {
				t.Errorf("%s/%s/%s: wait %d ps outside [0, %d ps]", name, sc.Scope, st.Stage, st.WaitPs, st.DurPs)
			}
		}
	}
	for i, e := range rep.Tail {
		if got := sum(e.Stages); got != e.TotalPs {
			t.Errorf("%s: tail op %d/%d stages sum to %d ps, total %d ps", name, e.Node, e.ID, got, e.TotalPs)
		}
		if i > 0 && e.TotalPs > rep.Tail[i-1].TotalPs {
			t.Errorf("%s: tail not slowest first: %d ps after %d ps", name, e.TotalPs, rep.Tail[i-1].TotalPs)
		}
	}
}

// checkSameLedger fails unless two ledgers hold the same run.
func checkSameLedger(t *testing.T, name string, a, b *ledger.Ledger) {
	t.Helper()
	if d := ledger.Compare(a, b); !d.Identical {
		t.Errorf("%s: ledgers differ: %s", name, d.Reason)
	}
}

// checkPinned fails unless two ledgers diverge, the divergence is found
// in an epoch, and replaying both pins it to one event inside that epoch,
// as simdiff reports it.
func checkPinned(t *testing.T, name string, a, b *ledger.Ledger) {
	t.Helper()
	d := ledger.Compare(a, b)
	if d.Identical || !d.Comparable || d.FirstDivergentEpoch < 0 {
		t.Fatalf("%s: %+v, want a divergence localized to an epoch", name, d)
	}
	div, err := ReplayDivergence(a, b, d)
	if err != nil || div == nil || div.Pop < d.FromPop || div.Pop >= d.ToPop {
		t.Fatalf("%s: replay did not pin a divergent event in pops %d..%d: %+v, %v", name, d.FromPop, d.ToPop-1, div, err)
	}
}

// checkProfile checks a shard-planner report: the fabric, nic and
// transport components are present, sorted by host time descending, and
// the shares sum to one.
func checkProfile(t *testing.T, transport string, rep *ledger.ProfileReport) {
	t.Helper()
	var labels []string
	var share float64
	for _, c := range rep.Components {
		labels = append(labels, c.Label)
		share += c.Share
	}
	for _, want := range []string{"fabric", "nic", transport} {
		if !slices.Contains(labels, want) {
			t.Errorf("%s profile: no %s component in %v", transport, want, labels)
		}
	}
	if !slices.IsSortedFunc(rep.Components, func(a, b ledger.ProfileEntry) int { return cmp.Compare(b.HostNS, a.HostNS) }) {
		t.Errorf("%s profile: components not sorted by host time", transport)
	}
	if math.Abs(share-1) > 1e-6 {
		t.Errorf("%s profile: shares sum to %v", transport, share)
	}
}

// checkCSV checks an exported CSV: a header starting with key and data
// rows, every row as wide as the header, rows ordered by their first
// column. It returns the header.
func checkCSV(t *testing.T, name string, data []byte, key string, order func(a, b string) int) []string {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil || len(rows) < 2 || rows[0][0] != key {
		t.Fatalf("%s: %d rows, error %v; want a header starting %q and data rows", name, len(rows), err, key)
	}
	if !slices.IsSortedFunc(rows[1:], func(a, b []string) int { return order(a[0], b[0]) }) {
		t.Errorf("%s: rows not ordered by %s", name, key)
	}
	return rows[0]
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// panicMessage runs fn and returns what it panicked with ("" if nothing).
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}
