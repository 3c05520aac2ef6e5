// Command simdiff compares two runs' artifacts for divergence forensics:
// execution ledgers (.ledger.json, or any JSON with a top-level
// chain_head), metric snapshots (JSON), and telemetry time-series (CSV).
//
// Ledgers must be canonical (every ledger this build records is); raw
// pop-order ledgers from earlier builds are refused with a note to
// re-record them. For ledgers it goes beyond byte equality: epoch chains are binary-
// searched for the first divergent epoch, and — when both ledgers embed a
// RunSpec — the runs are replayed in-process with a full-resolution
// capture window over that epoch, pinning the divergence to the exact
// first differing event (pop index, sequence number, timestamp, priority,
// component label).
//
// Exit status: 0 identical, 1 divergent, 2 usage or I/O error.
//
// Usage:
//
//	simdiff [-kind auto|ledger|metrics|telemetry] [-no-replay] A B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"rvma/internal/harness"
	"rvma/internal/ledger"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw *os.File) int {
	fs := flag.NewFlagSet("simdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	kind := fs.String("kind", "auto", "artifact kind: auto, ledger, metrics, telemetry")
	noReplay := fs.Bool("no-replay", false, "on ledger divergence, skip the in-process replay that pins the exact event")
	fs.Usage = func() {
		fmt.Fprintf(errw, "usage: simdiff [flags] A B\n\ncompares two run artifacts; exits 0 when identical, 1 on divergence, 2 on error\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)
	k := *kind
	if k == "auto" {
		k = detectKind(pathA)
		if k2 := detectKind(pathB); k2 != k {
			fmt.Fprintf(errw, "simdiff: cannot auto-detect a common kind (%s is %s, %s is %s); pass -kind\n", pathA, k, pathB, k2)
			return 2
		}
	}
	switch k {
	case "ledger":
		return diffLedgers(out, errw, pathA, pathB, !*noReplay)
	case "metrics":
		return diffMetrics(out, errw, pathA, pathB)
	case "telemetry":
		return diffTelemetry(out, errw, pathA, pathB)
	default:
		fmt.Fprintf(errw, "simdiff: unknown kind %q\n", k)
		return 2
	}
}

// detectKind guesses the artifact kind: a .ledger.json name, or any .json
// file whose top-level object has a chain_head (what rvmasim -ledger-out
// writes under any name), is a ledger; .csv is telemetry; the rest is a
// metrics snapshot.
func detectKind(path string) string {
	switch {
	case strings.HasSuffix(path, ".ledger.json"):
		return "ledger"
	case strings.HasSuffix(path, ".csv"):
		return "telemetry"
	case strings.HasSuffix(path, ".json") && hasChainHead(path):
		return "ledger"
	default:
		return "metrics"
	}
}

// hasChainHead reports whether path holds a JSON object with a top-level
// chain_head key; unreadable files report false and fail later with a
// real error.
func hasChainHead(path string) bool {
	b, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var top map[string]json.RawMessage
	if json.Unmarshal(b, &top) != nil {
		return false
	}
	_, ok := top["chain_head"]
	return ok
}

// diffLedgers compares two execution ledgers, localizing any divergence to
// an epoch and (when replay is possible) to the exact first divergent pop.
func diffLedgers(out, errw *os.File, pathA, pathB string, replay bool) int {
	la, err := readCanonical(pathA)
	if err != nil {
		fmt.Fprintf(errw, "simdiff: %v\n", err)
		return 2
	}
	lb, err := readCanonical(pathB)
	if err != nil {
		fmt.Fprintf(errw, "simdiff: %v\n", err)
		return 2
	}
	d := ledger.Compare(la, lb)
	if d.Identical {
		fmt.Fprintf(out, "identical: %d events, chain head %s\n", la.Events, la.ChainHead)
		return 0
	}
	if !d.Comparable {
		fmt.Fprintf(errw, "simdiff: %s\n", d.Reason)
		return 2
	}
	fmt.Fprintf(out, "DIVERGENT: %s\n", d.Reason)
	fmt.Fprintf(out, "first divergent epoch: %d (pops %d..%d)\n", d.FirstDivergentEpoch, d.FromPop, d.ToPop-1)
	if !replay {
		return 1
	}
	if la.Run == nil || lb.Run == nil {
		fmt.Fprintf(out, "no run spec embedded; cannot replay for event-level resolution\n")
		return 1
	}
	div, err := harness.ReplayDivergence(la, lb, d)
	if err != nil {
		fmt.Fprintf(errw, "simdiff: replay: %v\n", err)
		return 1
	}
	if div == nil {
		fmt.Fprintf(out, "replay windows agree over the divergent epoch (divergence did not reproduce)\n")
		return 1
	}
	fmt.Fprintf(out, "first divergent event: pop %d\n", div.Pop)
	fmt.Fprintf(out, "first-divergence seq: A=%d B=%d\n", div.SeqA, div.SeqB)
	printRec := func(side string, r *ledger.WindowRecord) {
		if r == nil {
			fmt.Fprintf(out, "  %s: <run drained>\n", side)
			return
		}
		fmt.Fprintf(out, "  %s: seq=%d t=%dps pri=%d label=%s\n", side, r.Seq, r.TimePS, r.Pri, r.Label)
	}
	printRec("A", div.A)
	printRec("B", div.B)
	return 1
}

// readCanonical loads a ledger file and refuses anything but a canonical
// ledger.
func readCanonical(path string) (*ledger.Ledger, error) {
	l, err := ledger.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := l.CheckCanonical(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// diffMetrics compares two JSON metric snapshots structurally and reports
// the first differing path (in sorted-key order, so output is stable).
func diffMetrics(out, errw *os.File, pathA, pathB string) int {
	va, err := readJSON(pathA)
	if err != nil {
		fmt.Fprintf(errw, "simdiff: %v\n", err)
		return 2
	}
	vb, err := readJSON(pathB)
	if err != nil {
		fmt.Fprintf(errw, "simdiff: %v\n", err)
		return 2
	}
	if path, a, b, ok := firstJSONDiff("$", va, vb); ok {
		fmt.Fprintf(out, "DIVERGENT: first differing path %s\n  A: %v\n  B: %v\n", path, a, b)
		return 1
	}
	fmt.Fprintln(out, "identical: metric snapshots match")
	return 0
}

func readJSON(path string) (any, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return v, nil
}

// firstJSONDiff walks two decoded JSON values and returns the first
// differing path, comparing object keys in sorted order.
func firstJSONDiff(path string, a, b any) (string, any, any, bool) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			return path, a, b, true
		}
		keys := map[string]bool{}
		for k := range av {
			keys[k] = true
		}
		for k := range bv {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			x, okA := av[k]
			y, okB := bv[k]
			if !okA {
				return path + "." + k, "<absent>", y, true
			}
			if !okB {
				return path + "." + k, x, "<absent>", true
			}
			if p, xa, xb, diff := firstJSONDiff(path+"."+k, x, y); diff {
				return p, xa, xb, true
			}
		}
		return "", nil, nil, false
	case []any:
		bv, ok := b.([]any)
		if !ok {
			return path, a, b, true
		}
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		for i := 0; i < n; i++ {
			if p, xa, xb, diff := firstJSONDiff(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i]); diff {
				return p, xa, xb, true
			}
		}
		if len(av) != len(bv) {
			return path, fmt.Sprintf("len %d", len(av)), fmt.Sprintf("len %d", len(bv)), true
		}
		return "", nil, nil, false
	default:
		if a != b {
			return path, a, b, true
		}
		return "", nil, nil, false
	}
}

// diffTelemetry compares two telemetry CSVs line by line and reports the
// first differing line and column.
func diffTelemetry(out, errw *os.File, pathA, pathB string) int {
	ba, err := os.ReadFile(pathA)
	if err != nil {
		fmt.Fprintf(errw, "simdiff: %v\n", err)
		return 2
	}
	bb, err := os.ReadFile(pathB)
	if err != nil {
		fmt.Fprintf(errw, "simdiff: %v\n", err)
		return 2
	}
	if string(ba) == string(bb) {
		fmt.Fprintln(out, "identical: telemetry matches")
		return 0
	}
	linesA := strings.Split(string(ba), "\n")
	linesB := strings.Split(string(bb), "\n")
	n := len(linesA)
	if len(linesB) < n {
		n = len(linesB)
	}
	for i := 0; i < n; i++ {
		if linesA[i] == linesB[i] {
			continue
		}
		colsA := strings.Split(linesA[i], ",")
		colsB := strings.Split(linesB[i], ",")
		col := 0
		for col < len(colsA) && col < len(colsB) && colsA[col] == colsB[col] {
			col++
		}
		fmt.Fprintf(out, "DIVERGENT: line %d column %d\n  A: %s\n  B: %s\n", i+1, col+1, linesA[i], linesB[i])
		return 1
	}
	fmt.Fprintf(out, "DIVERGENT: line counts differ (%d vs %d); shared prefix matches\n", len(linesA), len(linesB))
	return 1
}
