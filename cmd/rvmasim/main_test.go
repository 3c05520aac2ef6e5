package main

import (
	"bytes"
	"cmp"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
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

// TestFlagRegistryCoversEveryFlag is the audit-generation guard: every
// rvmasim flag must be declared through a flagTable row (which forces an
// explicit replica/shard classification), rows must be unique, and every
// row must actually register the flag it names. A new flag added via a
// bare flag.String in main would fail here; a new row automatically
// lands in the generated replicaUnsupported/shardUnsupported lists the
// matrix tests drive.
func TestFlagRegistryCoversEveryFlag(t *testing.T) {
	fs := flag.NewFlagSet("rvmasim", flag.ContinueOnError)
	declareFlags(fs)
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })
	seen := map[string]bool{}
	for _, row := range flagTable {
		if seen[row.name] {
			t.Errorf("duplicate registry row %q", row.name)
		}
		seen[row.name] = true
		if !registered[row.name] {
			t.Errorf("registry row %q does not register a flag of that name", row.name)
		}
	}
	for name := range registered {
		if !seen[name] {
			t.Errorf("flag -%s is registered outside the registry table", name)
		}
	}
	if len(registered) != len(flagTable) {
		t.Errorf("%d flags registered, %d registry rows", len(registered), len(flagTable))
	}
}

// TestReplicaIncompatibleMatrix pins the replica-mode flag audit: every
// observer flag is rejected when explicitly set alongside -seeds, including
// the ones the old value-based check silently ignored (-flight-recorder,
// -sample-interval, -tail-k) and the ledger flags.
func TestReplicaIncompatibleMatrix(t *testing.T) {
	cases := []struct {
		name string
		set  map[string]bool
		want []string
	}{
		{"none set", map[string]bool{}, nil},
		{"replica flags only", map[string]bool{"seeds": true, "workers": true, "gbps": true}, nil},
		{
			"kv workload knobs pass",
			map[string]bool{"seeds": true, "kv-skew": true, "kv-gap": true, "kv-servers": true,
				"kv-clients": true, "kv-keys": true, "kv-ops": true, "kv-window": true},
			nil,
		},
		{"trace", map[string]bool{"trace": true}, []string{"trace"}},
		{"spans", map[string]bool{"spans": true}, []string{"spans"}},
		{"metrics-out", map[string]bool{"metrics-out": true}, []string{"metrics-out"}},
		{"perfetto-out", map[string]bool{"perfetto-out": true}, []string{"perfetto-out"}},
		{"attrib-out", map[string]bool{"attrib-out": true}, []string{"attrib-out"}},
		{"timeseries-out", map[string]bool{"timeseries-out": true}, []string{"timeseries-out"}},
		{"heatmap-out", map[string]bool{"heatmap-out": true}, []string{"heatmap-out"}},
		{"nack-burst", map[string]bool{"nack-burst": true}, []string{"nack-burst"}},
		// Previously silently ignored in replica mode.
		{"flight-recorder", map[string]bool{"flight-recorder": true}, []string{"flight-recorder"}},
		{"sample-interval", map[string]bool{"sample-interval": true}, []string{"sample-interval"}},
		{"tail-k", map[string]bool{"tail-k": true}, []string{"tail-k"}},
		// Ledger flags are observers too.
		{"ledger-out", map[string]bool{"ledger-out": true}, []string{"ledger-out"}},
		{"ledger-epoch", map[string]bool{"ledger-epoch": true}, []string{"ledger-epoch"}},
		{"shard-plan-out", map[string]bool{"shard-plan-out": true}, []string{"shard-plan-out"}},
		// Sharding binds the run to one engine group; replicas each need
		// their own, so replica mode rejects it (and the canary knob).
		{"shards", map[string]bool{"shards": true}, []string{"shards"}},
		{"unsafe-lookahead-scale", map[string]bool{"unsafe-lookahead-scale": true}, []string{"unsafe-lookahead-scale"}},
		{
			"several at once, declaration order",
			map[string]bool{"ledger-out": true, "trace": true, "sample-interval": true, "seeds": true},
			[]string{"trace", "sample-interval", "ledger-out"},
		},
		{
			"shards with observers, declaration order",
			map[string]bool{"shards": true, "timeseries-out": true, "seeds": true},
			[]string{"timeseries-out", "shards"},
		},
	}
	for _, tc := range cases {
		if got := replicaIncompatible(tc.set); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: replicaIncompatible = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestReplicaUnsupportedCoversAllObserverFlags guards against a new
// observer flag being added without a replica-mode audit entry: every flag
// name in the list must be unique, and the known observer set must be a
// subset of the list.
func TestReplicaUnsupportedCoversAllObserverFlags(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range replicaUnsupported {
		if seen[name] {
			t.Errorf("duplicate entry %q in replicaUnsupported", name)
		}
		seen[name] = true
	}
	for _, name := range []string{
		"trace", "spans", "metrics-out", "perfetto-out", "attrib-out",
		"tail-k", "timeseries-out", "heatmap-out", "sample-interval",
		"flight-recorder", "nack-burst", "ledger-out", "ledger-epoch",
		"shard-plan-out", "shards", "unsafe-lookahead-scale",
	} {
		if !seen[name] {
			t.Errorf("observer flag %q missing from replicaUnsupported", name)
		}
	}
}

// TestShardIncompatibleMatrix pins the audit above one shard: the
// single-writer observers are rejected, the shard-aware ones pass through.
func TestShardIncompatibleMatrix(t *testing.T) {
	cases := []struct {
		name string
		set  map[string]bool
		want []string
	}{
		{"none set", map[string]bool{}, nil},
		{
			"kv workload knobs pass",
			map[string]bool{"shards": true, "kv-skew": true, "kv-gap": true, "kv-ops": true},
			nil,
		},
		{
			"shard-aware observers pass",
			map[string]bool{
				"shards": true, "metrics-out": true, "ledger-out": true,
				"ledger-epoch": true, "shard-plan-out": true,
				"timeseries-out": true, "heatmap-out": true, "sample-interval": true,
				"unsafe-lookahead-scale": true,
			},
			nil,
		},
		{"trace", map[string]bool{"shards": true, "trace": true}, []string{"trace"}},
		{"spans", map[string]bool{"shards": true, "spans": true}, []string{"spans"}},
		{"perfetto-out", map[string]bool{"shards": true, "perfetto-out": true}, []string{"perfetto-out"}},
		{"attrib-out", map[string]bool{"shards": true, "attrib-out": true}, []string{"attrib-out"}},
		{"tail-k", map[string]bool{"shards": true, "tail-k": true}, []string{"tail-k"}},
		{"flight-recorder", map[string]bool{"shards": true, "flight-recorder": true}, []string{"flight-recorder"}},
		{"nack-burst", map[string]bool{"shards": true, "nack-burst": true}, []string{"nack-burst"}},
		{
			"several at once, declaration order",
			map[string]bool{"flight-recorder": true, "spans": true, "trace": true},
			[]string{"trace", "spans", "flight-recorder"},
		},
	}
	for _, tc := range cases {
		if got := shardIncompatible(tc.set); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: shardIncompatible = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestShardFlagsError pins the shard-count audit: -shards below 1 fails
// naming the flag, one shard accepts every observer, more than one rejects
// the single-writer ones, and the lookahead canary needs more than one.
func TestShardFlagsError(t *testing.T) {
	for _, n := range []int{0, -3} {
		err := shardFlagsError(n, 1, map[string]bool{"shards": true})
		if err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Errorf("-shards %d: error %v, want one naming -shards", n, err)
		}
	}
	observers := map[string]bool{"trace": true, "spans": true, "perfetto-out": true, "flight-recorder": true}
	if err := shardFlagsError(1, 1, observers); err != nil {
		t.Errorf("one shard rejected single-writer observers: %v", err)
	}
	if err := shardFlagsError(4, 1, observers); err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Errorf("four shards: error %v, want the observers rejected", err)
	}
	if err := shardFlagsError(1, 20, nil); err == nil || !strings.Contains(err.Error(), "-unsafe-lookahead-scale") {
		t.Errorf("canary at one shard: error %v, want it rejected", err)
	}
	if err := shardFlagsError(4, 20, map[string]bool{"unsafe-lookahead-scale": true}); err != nil {
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

// TestReplicaTableIdenticalAcrossWorkers: the -seeds table is the same at
// one and four workers (apart from the worker count it reports), and each
// row is the makespan and event count of the single run at that seed.
func TestReplicaTableIdenticalAcrossWorkers(t *testing.T) {
	incast := func(seed string) []string {
		return []string{"-motif", "incast", "-topology", "single", "-nodes", "16", "-drop-rate", "0.05", "-seed", seed}
	}
	fs := flag.NewFlagSet("rvmasim", flag.ContinueOnError)
	v := declareFlags(fs)
	if err := fs.Parse(incast("5")); err != nil {
		t.Fatal(err)
	}
	table := func(workers int) string {
		f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = f
		runReplicas(runSpec(v), 3, workers)
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
	one, four := table(1), table(4)
	if one != four {
		t.Fatalf("replica table differs between 1 and 4 workers:\n%s\n---\n%s", one, four)
	}
	for _, seed := range []string{"5", "6", "7"} {
		_, single, _ := rvmasim(t, incast(seed)...)
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
		"metrics-out": object, "perfetto-out": object, "attrib-out": object, "shard-plan-out": object,
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
