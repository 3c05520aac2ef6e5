package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

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

// TestReplayableSpec pins which flag shapes embed a replayable RunSpec in
// -ledger-out files and which fall back to epoch-only localization.
func TestReplayableSpec(t *testing.T) {
	rs, ok := replayableSpec("sweep3d", "rvma", "dragonfly", "adaptive",
		64, 100, 7, 1, 4, "", 0, 0, 1)
	if !ok {
		t.Fatal("default knobs should be replayable")
	}
	if rs.Motif != "sweep3d" || rs.Transport != "rvma" || rs.Network != "dragonfly/adaptive" ||
		rs.Nodes != 64 || rs.Seed != 7 || rs.Recover || rs.Shards != 1 {
		t.Fatalf("unexpected spec: %+v", rs)
	}

	rs, ok = replayableSpec("halo3d", "rdma", "hyperx", "static",
		64, 200, 3, 1, 4, "", 0.01, 5, 1)
	if !ok {
		t.Fatal("drop-rate run should be replayable")
	}
	if !rs.Recover || rs.RetryBudget != 5 || rs.Drop != 0.01 {
		t.Fatalf("unexpected fault spec: %+v", rs)
	}

	rs, ok = replayableSpec("sweep3d", "rvma", "dragonfly", "adaptive",
		64, 100, 7, 1, 4, "", 0, 0, 4)
	if !ok {
		t.Fatal("sharded run with default knobs should be replayable")
	}
	if rs.Shards != 4 {
		t.Fatalf("unexpected sharded spec: %+v", rs)
	}

	for _, tc := range []struct {
		name                string
		rdmaBufs, rvmaDepth int
		faultPlan           string
		retryBudget         int
	}{
		{"non-default rdma buffers", 2, 4, "", 0},
		{"non-default rvma depth", 1, 8, "", 0},
		{"structured fault plan", 1, 4, "drop=0.01,burst=3", 0},
		{"recovery disabled", 1, 4, "", -1},
	} {
		if _, ok := replayableSpec("sweep3d", "rvma", "dragonfly", "adaptive",
			64, 100, 1, tc.rdmaBufs, tc.rvmaDepth, tc.faultPlan, 0, tc.retryBudget, 1); ok {
			t.Errorf("%s: expected not replayable", tc.name)
		}
	}
}
