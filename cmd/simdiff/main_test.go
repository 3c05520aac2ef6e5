package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rvma/internal/ledger"
	"rvma/internal/sim"
)

// runSimdiff invokes run() with capture files and returns (exit, stdout,
// stderr).
func runSimdiff(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "err"))
	if err != nil {
		t.Fatal(err)
	}
	code := run(args, outF, errF)
	outF.Close()
	errF.Close()
	out, _ := os.ReadFile(outF.Name())
	errb, _ := os.ReadFile(errF.Name())
	return code, string(out), string(errb)
}

func TestLedgerIdenticalGolden(t *testing.T) {
	code, out, _ := runSimdiff(t, "testdata/base.ledger.json", "testdata/base.ledger.json")
	if code != 0 {
		t.Fatalf("exit %d, want 0; out=%q", code, out)
	}
	want := "identical: 32 events, chain head 00000000000000b2\n"
	if out != want {
		t.Fatalf("output %q, want %q", out, want)
	}
}

func TestLedgerDivergentGolden(t *testing.T) {
	code, out, _ := runSimdiff(t, "testdata/base.ledger.json", "testdata/perturbed.ledger.json")
	if code != 1 {
		t.Fatalf("exit %d, want 1; out=%q", code, out)
	}
	want := "DIVERGENT: epoch 1 digest mismatch (00000000000000b1 vs 00000000000000c1)\n" +
		"first divergent epoch: 1 (pops 16..31)\n" +
		"no run spec embedded; cannot replay for event-level resolution\n"
	if out != want {
		t.Fatalf("output:\n%s\nwant:\n%s", out, want)
	}
}

// TestPlainJSONLedgerDetected: rvmasim -ledger-out writes a ledger under
// any name, so a .json file whose top-level object has a chain_head is
// diffed as a ledger (epoch search), not as a metrics snapshot.
func TestPlainJSONLedgerDetected(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, name := range []string{"base", "perturbed"} {
		b, err := os.ReadFile("testdata/" + name + ".ledger.json")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	code, out, _ := runSimdiff(t, paths[0], paths[1])
	if code != 1 || !strings.HasPrefix(out, "DIVERGENT: epoch 1 digest mismatch") ||
		!strings.Contains(out, "first divergent epoch: 1 (pops 16..31)") {
		t.Fatalf("exit %d, output:\n%s\nwant the ledger epoch search", code, out)
	}
	code, _, errOut := runSimdiff(t, paths[0], "testdata/metrics_a.json")
	if code != 2 || !strings.Contains(errOut, "cannot auto-detect") {
		t.Fatalf("ledger vs metrics: exit %d err %q", code, errOut)
	}
}

func TestMetricsGolden(t *testing.T) {
	code, out, _ := runSimdiff(t, "testdata/metrics_a.json", "testdata/metrics_b.json")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "$.counters.nacks") || !strings.Contains(out, "A: 3") || !strings.Contains(out, "B: 4") {
		t.Fatalf("unexpected metrics diff output:\n%s", out)
	}
	code, out, _ = runSimdiff(t, "testdata/metrics_a.json", "testdata/metrics_a.json")
	if code != 0 || !strings.Contains(out, "identical") {
		t.Fatalf("identical metrics: exit %d out %q", code, out)
	}
}

func TestTelemetryGolden(t *testing.T) {
	code, out, _ := runSimdiff(t, "testdata/ts_a.csv", "testdata/ts_b.csv")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	want := "DIVERGENT: line 4 column 2\n  A: 20,7,250\n  B: 20,9,250\n"
	if out != want {
		t.Fatalf("output %q, want %q", out, want)
	}
	code, _, _ = runSimdiff(t, "testdata/ts_a.csv", "testdata/ts_a.csv")
	if code != 0 {
		t.Fatalf("identical telemetry: exit %d", code)
	}
}

func TestKindMismatchRejected(t *testing.T) {
	code, _, errOut := runSimdiff(t, "testdata/base.ledger.json", "testdata/ts_a.csv")
	if code != 2 || !strings.Contains(errOut, "cannot auto-detect") {
		t.Fatalf("exit %d err %q", code, errOut)
	}
}

func TestUsageError(t *testing.T) {
	code, _, errOut := runSimdiff(t, "onlyone")
	if code != 2 || !strings.Contains(errOut, "usage:") {
		t.Fatalf("exit %d err %q", code, errOut)
	}
}

// TestRecorderBuiltLedgers builds two real diverging ledgers (without
// embedded replayable RunSpecs, so it checks the pure-ledger path end to
// end with recorder-built files instead of hand fixtures).
func TestRecorderBuiltLedgers(t *testing.T) {
	dir := t.TempDir()
	mk := func(seed uint64, name string) string {
		rec := ledger.NewCanonicalRecorder(ledger.Options{EpochEvents: 8})
		eng := sim.NewEngine(seed)
		tag := eng.Tag("comp")
		rec.Attach(eng)
		var step func(i int)
		step = func(i int) {
			if i >= 100 {
				return
			}
			tag.Schedule(sim.Time(1+eng.RNG().Intn(3))*sim.Nanosecond, func() { step(i + 1) })
		}
		eng.Schedule(0, func() { step(0) })
		eng.Run()
		path := filepath.Join(dir, name)
		if err := rec.Finalize().WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := mk(1, "a.ledger.json")
	b := mk(2, "b.ledger.json")
	code, out, _ := runSimdiff(t, a, a)
	if code != 0 {
		t.Fatalf("same ledger: exit %d out %q", code, out)
	}
	code, out, _ = runSimdiff(t, "-no-replay", a, b)
	if code != 1 || !strings.Contains(out, "first divergent epoch:") {
		t.Fatalf("diverging ledgers: exit %d out %q", code, out)
	}
}

// TestRawLedgerRefused: a raw pop-order ledger recorded by an earlier
// build (no "mode" field) is refused with exit 2 and a note to re-record.
func TestRawLedgerRefused(t *testing.T) {
	b, err := os.ReadFile("testdata/base.ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	raw := strings.Replace(string(b), ` "mode": "canonical",
`, "", 1)
	path := filepath.Join(t.TempDir(), "raw.ledger.json")
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runSimdiff(t, path, "testdata/base.ledger.json")
	if code != 2 || !strings.Contains(errOut, "re-record") {
		t.Fatalf("raw ledger: exit %d err %q, want exit 2 and a re-record note", code, errOut)
	}
}
