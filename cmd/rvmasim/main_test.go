package main

import (
	"bytes"
	"cmp"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rvma/internal/harness"
	"rvma/internal/ledger"
	"rvma/internal/sim"
)

// rvmasimBin is the command built once for the tests that run it end to
// end, with the simdebug invariants armed when the test binary has them;
// TestMain removes it.
var rvmasimBin struct {
	once sync.Once
	path string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if rvmasimBin.path != "" {
		os.RemoveAll(filepath.Dir(rvmasimBin.path))
	}
	os.Exit(code)
}

// rvmasim runs the built command and returns its exit status, stdout and
// stderr.
func rvmasim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	rvmasimBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "rvmasim-test")
		if err != nil {
			rvmasimBin.err = err
			return
		}
		rvmasimBin.path = filepath.Join(dir, "rvmasim")
		args := []string{"build", "-o", rvmasimBin.path}
		if sim.DebugEnabled {
			args = append(args, "-tags", "simdebug")
		}
		if out, err := exec.Command("go", append(args, ".")...).CombinedOutput(); err != nil {
			rvmasimBin.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if rvmasimBin.err != nil {
		t.Fatal(rvmasimBin.err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(rvmasimBin.path, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

// TestFlagRegistryCoversEveryFlag is the registry guard: every rvmasim
// flag must be declared through a flagTable row (which forces a class),
// rows must be unique and every row must register the flag it names.
func TestFlagRegistryCoversEveryFlag(t *testing.T) {
	fs := flag.NewFlagSet("rvmasim", flag.ContinueOnError)
	declareFlags(fs)
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })
	classes := map[string]flagClass{}
	for _, row := range flagTable {
		if _, dup := classes[row.name]; dup {
			t.Errorf("duplicate registry row %q", row.name)
		}
		classes[row.name] = row.class
		if !registered[row.name] {
			t.Errorf("registry row %q does not register a flag of that name", row.name)
		}
	}
	for name := range registered {
		if _, ok := classes[name]; !ok {
			t.Errorf("flag -%s is registered outside the registry table", name)
		}
	}
}

// TestReplicaUnsupportedCoversAllObserverFlags guards against a new
// observer flag being added as a spec flag: each flag named here keeps the
// class the audit relies on, so set alone under -seeds 3 it is rejected by
// name, and every other registry row (-shards and the lookahead canary
// included) passes.
func TestReplicaUnsupportedCoversAllObserverFlags(t *testing.T) {
	want := map[string]flagClass{
		"metrics-out": observerFlag, "timeseries-out": observerFlag, "heatmap-out": observerFlag,
		"sample-interval": observerFlag, "ledger-out": observerFlag, "ledger-epoch": observerFlag,
		"profile-out": observerFlag,
		"trace":       singleWriterFlag, "spans": singleWriterFlag, "perfetto-out": singleWriterFlag,
		"flight-recorder": singleWriterFlag, "nack-burst": singleWriterFlag, "attrib-out": singleWriterFlag,
		"tail-k": singleWriterFlag,
	}
	for _, row := range flagTable {
		if row.class != want[row.name] {
			t.Errorf("flag -%s has class %d, want %d", row.name, row.class, want[row.name])
		}
		err := auditFlags(map[string]bool{row.name: true}, 3, 1)
		if _, observer := want[row.name]; !observer && err != nil {
			t.Errorf("spec flag -%s rejected under -seeds 3: %v", row.name, err)
		} else if observer && (err == nil || !strings.Contains(err.Error(), "-"+row.name+" ")) {
			t.Errorf("observer flag -%s under -seeds 3: error %v, want it rejected by name", row.name, err)
		}
	}
}

// auditCase is one run-mode audit case: the flags set beyond the mode's
// own, and the flags the audit must reject, in table order (none: the
// flags parse).
type auditCase struct {
	name string
	args []string
	want []string
}

// checkAudit parses each case after mode and checks the audit rejects
// exactly the flags it names.
func checkAudit(t *testing.T, mode []string, cases []auditCase) {
	t.Helper()
	for _, tc := range cases {
		fs := flag.NewFlagSet("rvmasim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, append(append([]string{}, mode...), tc.args...))
		switch {
		case tc.want == nil && err != nil:
			t.Errorf("%s: %v, want the flags accepted", tc.name, err)
		case tc.want != nil && (err == nil || !strings.HasPrefix(err.Error(), "flag(s) -"+strings.Join(tc.want, ", -")+" ")):
			t.Errorf("%s: error %v, want -%s rejected", tc.name, err, strings.Join(tc.want, ", -"))
		}
	}
}

// TestReplicaIncompatibleMatrix pins the audit under -seeds: every
// observer flag set alongside it is rejected, including the ones that only
// tune an observer (-flight-recorder, -sample-interval, -tail-k,
// -ledger-epoch), while every spec flag, -shards included, passes.
func TestReplicaIncompatibleMatrix(t *testing.T) {
	checkAudit(t, []string{"-seeds", "3"}, []auditCase{
		{"none set", nil, nil},
		{"replica flags only", []string{"-workers", "2", "-gbps", "200"}, nil},
		{"kv workload knobs pass", []string{"-motif", "kv", "-kv-skew", "1.2", "-kv-gap", "1us", "-kv-servers", "2",
			"-kv-clients", "10", "-kv-keys", "64", "-kv-ops", "4", "-kv-window", "2"}, nil},
		{"sharded replicas pass", []string{"-shards", "2", "-unsafe-lookahead-scale", "2"}, nil},
		{"trace", []string{"-trace"}, []string{"trace"}},
		{"spans", []string{"-spans"}, []string{"spans"}},
		{"metrics-out", []string{"-metrics-out", "m.json"}, []string{"metrics-out"}},
		{"perfetto-out", []string{"-perfetto-out", "p.json"}, []string{"perfetto-out"}},
		{"attrib-out", []string{"-attrib-out", "a.json"}, []string{"attrib-out"}},
		{"timeseries-out", []string{"-timeseries-out", "ts.csv"}, []string{"timeseries-out"}},
		{"heatmap-out", []string{"-heatmap-out", "h.csv"}, []string{"heatmap-out"}},
		{"nack-burst", []string{"-nack-burst", "3"}, []string{"nack-burst"}},
		{"flight-recorder", []string{"-flight-recorder", "16"}, []string{"flight-recorder"}},
		{"sample-interval", []string{"-sample-interval", "5us"}, []string{"sample-interval"}},
		{"tail-k", []string{"-tail-k", "4"}, []string{"tail-k"}},
		{"ledger-out", []string{"-ledger-out", "l.json"}, []string{"ledger-out"}},
		{"ledger-epoch", []string{"-ledger-epoch", "100"}, []string{"ledger-epoch"}},
		{"profile-out", []string{"-profile-out", "p.csv"}, []string{"profile-out"}},
		{"several at once, declaration order",
			[]string{"-ledger-out", "l.json", "-trace", "-sample-interval", "5us"},
			[]string{"trace", "sample-interval", "ledger-out"}},
		{"single-writer flags above one shard, declaration order",
			[]string{"-shards", "2", "-timeseries-out", "ts.csv", "-spans"},
			[]string{"spans", "timeseries-out"}},
	})
}

// TestShardIncompatibleMatrix pins the audit above one shard: the
// single-writer observers are rejected and every other flag passes, while
// one shard accepts every observer.
func TestShardIncompatibleMatrix(t *testing.T) {
	checkAudit(t, []string{"-shards", "4"}, []auditCase{
		{"none set", nil, nil},
		{"kv workload knobs pass", []string{"-motif", "kv", "-kv-skew", "1.2", "-kv-gap", "1us", "-kv-ops", "4"}, nil},
		{"shard-aware observers pass", []string{"-metrics-out", "m.json", "-ledger-out", "l.json",
			"-ledger-epoch", "100", "-profile-out", "p.csv", "-timeseries-out", "ts.csv", "-heatmap-out", "h.csv",
			"-sample-interval", "5us", "-unsafe-lookahead-scale", "20"}, nil},
		{"trace", []string{"-trace"}, []string{"trace"}},
		{"spans", []string{"-spans"}, []string{"spans"}},
		{"perfetto-out", []string{"-perfetto-out", "p.json"}, []string{"perfetto-out"}},
		{"attrib-out", []string{"-attrib-out", "a.json"}, []string{"attrib-out"}},
		{"tail-k", []string{"-tail-k", "4"}, []string{"tail-k"}},
		{"flight-recorder", []string{"-flight-recorder", "16"}, []string{"flight-recorder"}},
		{"nack-burst", []string{"-nack-burst", "3"}, []string{"nack-burst"}},
		{"several at once, declaration order",
			[]string{"-flight-recorder", "16", "-spans", "-trace"},
			[]string{"trace", "spans", "flight-recorder"}},
	})
	checkAudit(t, []string{"-shards", "1"}, []auditCase{
		{"one shard takes every single-writer observer",
			[]string{"-trace", "-spans", "-perfetto-out", "p.json", "-attrib-out", "a.json", "-tail-k", "4",
				"-flight-recorder", "16", "-nack-burst", "3"}, nil},
	})
}

// TestShardFlagsError pins the shard-count checks in parseFlags: -shards
// below 1 fails naming the flag, one shard accepts every observer, more
// than one rejects the single-writer ones, and the lookahead canary needs
// more than one.
func TestShardFlagsError(t *testing.T) {
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("rvmasim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, args)
		return err
	}
	for _, n := range []string{"0", "-3"} {
		if err := parse("-shards", n); err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Errorf("-shards %s: error %v, want one naming -shards", n, err)
		}
	}
	observers := []string{"-trace", "-spans", "-perfetto-out", "p.json", "-flight-recorder", "16"}
	if err := parse(append([]string{"-shards", "1"}, observers...)...); err != nil {
		t.Errorf("one shard rejected single-writer observers: %v", err)
	}
	if err := parse(append([]string{"-shards", "4"}, observers...)...); err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Errorf("four shards: error %v, want the observers rejected", err)
	}
	if err := parse("-unsafe-lookahead-scale", "20"); err == nil || !strings.Contains(err.Error(), "-unsafe-lookahead-scale") {
		t.Errorf("canary at one shard: error %v, want it rejected", err)
	}
	if err := parse("-shards", "4", "-unsafe-lookahead-scale", "20"); err != nil {
		t.Errorf("canary at four shards rejected: %v", err)
	}
}

// TestBadCellInputFailsFast: every bad cell input exits 2 before the run,
// with one line naming the flag — never a panic, and never a run on a
// value other than the one asked for.
func TestBadCellInputFailsFast(t *testing.T) {
	ts := filepath.Join(t.TempDir(), "ts.csv")
	for _, tc := range []struct {
		name string
		args []string
		flag string
	}{
		{"zero link speed", []string{"-gbps", "0"}, "-gbps"},
		{"negative link speed", []string{"-gbps", "-100"}, "-gbps"},
		{"zero sample interval", []string{"-sample-interval", "0", "-timeseries-out", ts}, "-sample-interval"},
		{"negative kv skew", []string{"-motif", "kv", "-kv-skew", "-1"}, "-kv-skew"},
		{"zero rvma depth", []string{"-rvma-depth", "0"}, "-rvma-depth"},
		{"zero rdma buffers", []string{"-transport", "rdma", "-rdma-buffers", "0"}, "-rdma-buffers"},
		{"zero seeds", []string{"-seeds", "0"}, "-seeds"},
		{"negative seeds", []string{"-seeds", "-2"}, "-seeds"},
		{"unknown motif", []string{"-motif", "nosuch"}, "-motif"},
		{"drop rate above one", []string{"-drop-rate", "2"}, "-drop-rate"},
		{"retry budget below -1", []string{"-drop-rate", "0.01", "-retry-budget", "-2"}, "-retry-budget"},
		{"zero shards", []string{"-shards", "0"}, "-shards"},
		{"negative shards", []string{"-shards", "-3"}, "-shards"},
		{"lookahead canary at one shard", []string{"-unsafe-lookahead-scale", "20"}, "-unsafe-lookahead-scale"},
		{"nack watch without a recorder", []string{"-nack-burst", "3", "-flight-recorder", "0"}, "-nack-burst"},
	} {
		args := append([]string{"-topology", "single", "-nodes", "8"}, tc.args...)
		code, stdout, stderr := rvmasim(t, args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "rvmasim: "+tc.flag) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				tc.name, code, stdout, stderr, tc.flag)
		}
	}
}

// recordLedger runs rvmasim with -ledger-out and returns the ledger.
func recordLedger(t *testing.T, args ...string) *ledger.Ledger {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.json")
	if code, _, stderr := rvmasim(t, append(args, "-nodes", "64", "-ledger-out", path)...); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr)
	}
	l, err := ledger.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestEveryLedgerReplays: ledgers of runs with a structured fault plan or
// non-default transport buffering embed a spec that replays to the
// recorded chain head, and seed-perturbed lossy pairs are pinned to their
// first divergent event by replay, as simdiff does.
func TestEveryLedgerReplays(t *testing.T) {
	for _, args := range [][]string{
		{"-fault-plan", "drop=0.01,burst=2,window=all:5us:20us:0.2"},
		{"-transport", "rdma", "-rdma-buffers", "2"},
		{"-rvma-depth", "2"},
	} {
		l := recordLedger(t, args...)
		replay, _, err := harness.ReplaySpec(l, harness.ReplayOptions{EpochEvents: l.EpochEvents})
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if replay.ChainHead != l.ChainHead || replay.Events != l.Events {
			t.Errorf("%v: replay chain head %s (%d events), recorded %s (%d events)",
				args, replay.ChainHead, replay.Events, l.ChainHead, l.Events)
		}
	}

	// Lossy pairs one seed apart: the fault substreams are seeded from the
	// model seed, so each pair diverges, in an epoch, at one event.
	for _, pair := range []struct {
		loss  []string
		seeds [2]string
	}{
		{[]string{"-fault-plan", "drop=0.01"}, [2]string{"3", "4"}},
		{[]string{"-drop-rate", "0.01"}, [2]string{"42", "43"}},
	} {
		a := recordLedger(t, append(pair.loss, "-seed", pair.seeds[0])...)
		b := recordLedger(t, append(pair.loss, "-seed", pair.seeds[1])...)
		d := ledger.Compare(a, b)
		if d.Identical || !d.Comparable || d.FirstDivergentEpoch < 0 {
			t.Fatalf("%v seeds %v: %+v, want a divergence localized to an epoch", pair.loss, pair.seeds, d)
		}
		div, err := harness.ReplayDivergence(a, b, d)
		if err != nil || div == nil || div.A == nil || div.B == nil {
			t.Fatalf("%v seeds %v: divergence not pinned to an event: %+v, %v", pair.loss, pair.seeds, div, err)
		}
	}
}

// replicaTable parses args, runs the -seeds replicas in process and
// returns their table without the line reporting the worker count.
func replicaTable(t *testing.T, args ...string) string {
	t.Helper()
	c, err := parseFlags(flag.NewFlagSet("rvmasim", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	runReplicas(c.spec, c.seeds, c.workers)
	os.Stdout = stdout
	f.Close()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "replicas:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// lossyIncast is the small lossy incast cell the replica tests run.
func lossyIncast(seed string) []string {
	return []string{"-motif", "incast", "-topology", "single", "-nodes", "16", "-drop-rate", "0.05", "-seed", seed}
}

// TestReplicaTableIdenticalAcrossWorkers: the -seeds table is the same at
// one and four workers (apart from the worker count it reports), and each
// row is the makespan and event count of the single run at that seed.
func TestReplicaTableIdenticalAcrossWorkers(t *testing.T) {
	one := replicaTable(t, append(lossyIncast("5"), "-seeds", "3", "-workers", "1")...)
	four := replicaTable(t, append(lossyIncast("5"), "-seeds", "3", "-workers", "4")...)
	if one != four {
		t.Fatalf("replica table differs between 1 and 4 workers:\n%s\n---\n%s", one, four)
	}
	for _, seed := range []string{"5", "6", "7"} {
		_, single, _ := rvmasim(t, lossyIncast(seed)...)
		var makespan, events string
		for _, line := range strings.Split(single, "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "makespan:" {
				makespan = f[1]
			} else if len(f) >= 2 && f[0] == "events:" {
				events = f[1]
			}
		}
		row := fmt.Sprintf("%-8s %-16s %s", seed, makespan, events)
		if makespan == "" || !strings.Contains(one, row) {
			t.Errorf("seed %s: single run gives row %q, not in the replica table:\n%s", seed, row, one)
		}
	}
}

// TestReplicaTableIdenticalAtEveryShardCount: -seeds runs with -shards,
// each replica on its own shard group, and prints the table the one-shard
// replicas print.
func TestReplicaTableIdenticalAtEveryShardCount(t *testing.T) {
	one := replicaTable(t, append(lossyIncast("5"), "-seeds", "3", "-shards", "1")...)
	two := replicaTable(t, append(lossyIncast("5"), "-seeds", "3", "-shards", "2")...)
	if one != two {
		t.Fatalf("replica table differs between 1 and 2 shards:\n%s\n---\n%s", one, two)
	}
}

// TestMetricsIdenticalAtEveryShardCount: the -metrics-out snapshot of a
// run is byte-identical at one and four shards, for both transports. The
// collector-backed gauges (queue depths, pending reassemblies) are read
// once, when the snapshot is written, so no shard count samples them
// mid-run where another does not.
func TestMetricsIdenticalAtEveryShardCount(t *testing.T) {
	dir := t.TempDir()
	for _, nodes := range []string{"16", "64"} {
		for _, transport := range []string{"rvma", "rdma"} {
			snapshot := func(shards string) []byte {
				path := filepath.Join(dir, transport+"-n"+nodes+"-s"+shards+".metrics.json")
				code, _, stderr := rvmasim(t, "-motif", "sweep3d", "-transport", transport,
					"-topology", "dragonfly", "-routing", "adaptive", "-nodes", nodes, "-gbps", "100", "-seed", "42",
					"-shards", shards, "-metrics-out", path)
				if code != 0 {
					t.Fatalf("%s at -nodes %s -shards %s: exit %d: %s", transport, nodes, shards, code, stderr)
				}
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			if one, four := snapshot("1"), snapshot("4"); !bytes.Equal(one, four) {
				t.Errorf("%s at -nodes %s: -metrics-out differs between -shards 1 (%d bytes) and -shards 4 (%d bytes)",
					transport, nodes, len(one), len(four))
			}
		}
	}
}

// TestEveryExporterWritesItsFile runs the 64-node dragonfly/adaptive
// Figure-7 cell with every -*-out flag at once and checks each file is
// written and parses: the JSON reports as objects with content, the CSVs
// with a header and data rows, the ledger as a canonical ledger.
func TestEveryExporterWritesItsFile(t *testing.T) {
	object := func(b []byte) error {
		var v map[string]json.RawMessage
		err := json.Unmarshal(b, &v)
		if err == nil && len(v) == 0 {
			err = errors.New("empty object")
		}
		return err
	}
	table := func(b []byte) error {
		rows, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
		if err == nil && len(rows) < 2 {
			err = fmt.Errorf("%d rows, want a header and data", len(rows))
		}
		return err
	}
	parsers := map[string]func([]byte) error{
		"metrics-out": object, "perfetto-out": object, "attrib-out": object, "profile-out": object,
		"timeseries-out": table, "heatmap-out": table,
		"ledger-out": func(b []byte) error {
			var l ledger.Ledger
			return cmp.Or(json.Unmarshal(b, &l), l.CheckCanonical())
		},
	}
	dir := t.TempDir()
	args := []string{"-motif", "sweep3d", "-transport", "rvma", "-topology", "dragonfly",
		"-routing", "adaptive", "-nodes", "64", "-gbps", "100", "-seed", "42"}
	var exporters []string
	for _, f := range flagTable {
		if strings.HasSuffix(f.name, "-out") {
			exporters = append(exporters, f.name)
			args = append(args, "-"+f.name, filepath.Join(dir, f.name))
		}
	}
	if code, _, stderr := rvmasim(t, args...); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, name := range exporters {
		parse, ok := parsers[name]
		b, err := os.ReadFile(filepath.Join(dir, name))
		switch {
		case !ok:
			err = errors.New("no parser for this exporter")
		case err == nil:
			err = parse(b)
		}
		if err != nil {
			t.Errorf("-%s: %v", name, err)
		}
	}
}
