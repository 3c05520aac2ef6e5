package harness

import (
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
	if out := RunCell(rs, Observers{}); out.Err == nil {
		t.Fatal("unknown motif should error")
	}
}

func TestFig7Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("motif sweep in -short mode")
	}
	o := tinyOptions()
	o.LinkGbps = []float64{100}
	tab := Fig7(o)
	if len(tab.Rows) != len(motifNetworks()) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(motifNetworks()))
	}
	// Every speedup cell parses and is positive.
	for _, row := range tab.Rows {
		sp := strings.TrimSuffix(row[len(row)-1], "x")
		v, err := strconv.ParseFloat(sp, 64)
		if err != nil || v <= 0 {
			t.Fatalf("bad speedup cell %q", row[len(row)-1])
		}
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
