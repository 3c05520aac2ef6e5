package harness

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/topology"
)

// tinyOptions keep harness tests fast.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Sizes = []int{2, 4096}
	o.Iters = 30
	o.Runs = 2
	o.Nodes = 32
	o.LinkGbps = []float64{100, 2000}
	return o
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.AddNote("n%d", 1)
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== T ==", "a", "bb", "333", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}}
	tab.AddRow(`x,y`, `q"z`)
	var sb strings.Builder
	tab.CSV(&sb)
	want := "a,b\n\"x,y\",\"q\"\"z\"\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

func TestFig4Shape(t *testing.T) {
	tab := Fig4(tinyOptions())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want one per size", len(tab.Rows))
	}
	// Reduction column must be a positive percentage at the small size.
	red := strings.TrimSuffix(tab.Rows[0][len(tab.Rows[0])-1], "%")
	v, err := strconv.ParseFloat(red, 64)
	if err != nil || v <= 0 {
		t.Fatalf("reduction cell %q not a positive percentage", red)
	}
}

func TestFig6Shape(t *testing.T) {
	tab := Fig6(tinyOptions())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	nSmall, _ := strconv.Atoi(tab.Rows[0][3])
	nBig, _ := strconv.Atoi(tab.Rows[1][3])
	if nSmall <= nBig {
		t.Fatalf("amortization count must fall with size: %d then %d", nSmall, nBig)
	}
}

func TestRunCell(t *testing.T) {
	o := DefaultOptions()
	o.Nodes, o.Seed = 16, 1
	rs := o.spec(MotifSweep3D, "rvma", NetConfig{Name: "t", Kind: topology.KindHyperX, Routing: fabric.RouteStatic}, 100)
	if out := RunCell(rs, Observers{}); out.Err != nil || out.Makespan <= 0 || out.Events == 0 {
		t.Fatalf("cell: %v, %d events, %v", out.Makespan, out.Events, out.Err)
	}
	rs.Motif = "nosuch"
	out := RunCell(rs, Observers{})
	if out.Err == nil {
		t.Fatal("unknown motif should error")
	}
	// The message lists every motif, sorted.
	var motifs []string
	for m := range motifRuns {
		motifs = append(motifs, string(m))
	}
	slices.Sort(motifs)
	if want := strings.Join(motifs, ", "); !strings.Contains(out.Err.Error(), want) {
		t.Fatalf("error %q does not list every motif (%s)", out.Err, want)
	}
}

// speedups reads a motif figure's speedup column, keyed network then link.
func speedups(t *testing.T, tab *Table) map[string]map[string]float64 {
	t.Helper()
	sp := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[len(row)-1], "x"), 64)
		if err != nil {
			t.Fatalf("bad speedup cell %q", row[len(row)-1])
		}
		if sp[row[0]] == nil {
			sp[row[0]] = map[string]float64{}
		}
		sp[row[0]][row[1]] = v
	}
	return sp
}

// TestFig7Tiny checks the paper's motif claims at tiny scale (32 nodes,
// 100 Gbps and 2 Tbps): RVMA wins every Sweep3D cell, its speedup rises
// with link speed on every network, and it wins every Halo3D cell too.
// Measured at seeds 42, 7 and 1 alike (lossless cells draw nothing):
// fig7 at least 1.84x at 100 Gbps and 5.60x at 2 Tbps, fig8 at least
// 1.10x.
func TestFig7Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("motif sweep in -short mode")
	}
	t.Parallel()
	o := tinyOptions()
	fig7 := speedups(t, Fig7(o))
	if len(fig7) != len(motifNetworks()) {
		t.Fatalf("fig7 networks = %d, want %d", len(fig7), len(motifNetworks()))
	}
	for network, sp := range fig7 {
		slow, fast := sp["100Gbps"], sp["2Tbps"]
		if len(sp) != 2 || slow <= 1 || fast <= 1 {
			t.Errorf("fig7 %s: speedups %v, want RVMA faster at both speeds", network, sp)
		}
		if fast <= slow {
			t.Errorf("fig7 %s: speedup %.2fx at 2Tbps does not rise from %.2fx at 100Gbps", network, fast, slow)
		}
	}
	fig8 := speedups(t, Fig8(o))
	for network, sp := range fig8 {
		for link, v := range sp {
			if v <= 1 {
				t.Errorf("fig8 %s @%s: speedup %.2fx, want RVMA faster", network, link, v)
			}
		}
	}
	if len(fig8) != len(motifNetworks()) {
		t.Fatalf("fig8 networks = %d, want %d", len(fig8), len(motifNetworks()))
	}
}

func TestNotifyAblationOrdering(t *testing.T) {
	tab := NotifyAblation(tinyOptions())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	mwait, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	poll, _ := strconv.ParseFloat(tab.Rows[1][1], 64)
	if mwait > poll {
		t.Fatalf("MWait (%v) should be no slower than polling (%v)", mwait, poll)
	}
}

func TestPCIeAblation(t *testing.T) {
	tab := PCIeAblation(tinyOptions())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[0][2], "300") {
		t.Fatalf("Gen4/5 spill penalty should be 300ns (2 x 150ns), got %q", tab.Rows[0][2])
	}
}

func TestMicroSummary(t *testing.T) {
	o := tinyOptions()
	tab := MicroSummary(o)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[2], "%") {
			t.Fatalf("measured cell %q should be a percentage", row[2])
		}
	}
}

func TestCostModelScaling(t *testing.T) {
	if lutLookupTime() != listMatchTime(2) {
		t.Fatalf("defaults: table %v vs 2-element list %v", lutLookupTime(), listMatchTime(2))
	}
	// The paper's point: table cost is flat, list cost grows with depth.
	if listMatchTime(1000) <= lutLookupTime() {
		t.Fatal("a deep list walk must cost more than a table lookup")
	}
	if listMatchTime(0) != listMatchTime(1) {
		t.Fatal("a miss on an empty list still costs one element check")
	}
}

func TestExtensionTables(t *testing.T) {
	o := tinyOptions()
	me := MatchEngineTable(o)
	if len(me.Rows) != 4 {
		t.Fatalf("matchengine rows = %d", len(me.Rows))
	}
	if me.Rows[0][1] != me.Rows[3][1] {
		t.Fatal("LUT lookup must be flat across entry counts")
	}
	coll := CollectivesTable(o)
	if len(coll.Rows) != 4 {
		t.Fatalf("collectives rows = %d (notes: %v)", len(coll.Rows), coll.Notes)
	}
	for _, row := range coll.Rows {
		sp := strings.TrimSuffix(row[3], "x")
		v, err := strconv.ParseFloat(sp, 64)
		if err != nil || v <= 1.0 {
			t.Fatalf("collective %s speedup %q should exceed 1x", row[0], row[3])
		}
	}
	lb := LastByteCheatAblation(o)
	if len(lb.Rows) != 3 {
		t.Fatalf("last-byte ablation rows = %d (notes: %v)", len(lb.Rows), lb.Notes)
	}
}
