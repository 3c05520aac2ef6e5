package motif

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"rvma/internal/recovery"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// clusterMallocs builds the cluster of cfg and returns the heap objects
// NewCluster allocated per node. The topology is built before counting:
// it is shared by both cells of a run and is not per-node state.
func clusterMallocs(t testing.TB, cfg ClusterConfig) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewCluster(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(c)
	return float64(after.Mallocs-before.Mallocs) / float64(cfg.Topology.NumNodes())
}

// constructConfig is the scale-8k cell's configuration at the given node
// count: dragonfly, adaptive routing, 400 Gbps.
func constructConfig(t testing.TB, nodes int, kind TransportKind, rec bool) ClusterConfig {
	t.Helper()
	topo, err := topology.ForNodeCount(topology.KindDragonfly, nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(topo, kind)
	cfg.Seed = 42
	cfg.ApplyLinkSpeed(400)
	if rec {
		rc := recovery.DefaultConfig()
		cfg.Recovery = &rc
	}
	return cfg
}

// Building a node costs a few slots in per-shard arrays, not a graph of
// heap objects: NewCluster makes at most maxMallocsPerNode heap objects
// per node, and the count does not grow with the cluster. A per-node name,
// closure or eagerly made map shows here as a step of one per node.
func TestNewClusterAllocsPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 8k-node clusters")
	}
	const maxMallocsPerNode = 4
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		for _, rec := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/recovery=%v", kind, rec), func(t *testing.T) {
				small := clusterMallocs(t, constructConfig(t, 1024, kind, rec))
				large := clusterMallocs(t, constructConfig(t, 8192, kind, rec))
				t.Logf("mallocs per node: %.2f at ~1k nodes, %.2f at ~8k nodes", small, large)
				if small > maxMallocsPerNode || large > maxMallocsPerNode {
					t.Errorf("mallocs per node %.2f (1k) and %.2f (8k), want <= %d", small, large, maxMallocsPerNode)
				}
				if math.Abs(small-large) > 0.5 {
					t.Errorf("mallocs per node %.2f at 1k vs %.2f at 8k: construction cost grows with the cluster", small, large)
				}
			})
		}
	}
}

// BenchmarkNewCluster reports what building the 8k-node dragonfly cluster
// of scale-8k costs, for each transport.
func BenchmarkNewCluster(b *testing.B) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := constructConfig(b, 8192, kind, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewCluster(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// startupIncast is the scale-8k cell's run at any node count: every
// client sends one 4 KiB message to rank 0.
var startupIncast = IncastConfig{Messages: 1, MsgBytes: 4096}

// startupMallocs builds the cluster of cfg and returns the heap objects
// a 1-message incast on it allocates per node: rank start-up (spawning
// every rank, the server's Prepare of a mailbox or a credit pair per
// client, each client's Prepare of its one out-neighbor with its
// handshake) and one message per client. Construction is not counted.
func startupMallocs(t testing.TB, cfg ClusterConfig) float64 {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := RunIncast(c, startupIncast); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(cfg.Topology.NumNodes())
}

// A rank's start-up costs a bounded number of heap objects per Prepare,
// not per peer: the incast server's mailboxes (RVMA) or peer records and
// credit state (RDMA) for every client are a few arrays, and a Figure 1
// handshake is an op record and a registration record with one bound
// method each. So the objects a 1-message incast allocates per node,
// start-up and message together, do not grow with the node count, and
// stay under the pinned values: the measured 25.0–25.3 (RVMA) and 50.9
// (RDMA) per node, rounded up. Most of what is left is the rank's
// coroutine and the first-use pools of its endpoint. A per-peer record,
// closure or slice at start-up shows at the server as a step of one per
// node. Skipped under -short, which builds a 4k-node cluster.
func TestStartupAllocsPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 4k-node clusters")
	}
	if sim.DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	for _, tc := range []struct {
		kind TransportKind
		max  float64
	}{
		{KindRVMA, 27},
		{KindRDMA, 55},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			small := startupMallocs(t, constructConfig(t, 1024, tc.kind, false))
			large := startupMallocs(t, constructConfig(t, 4096, tc.kind, false))
			t.Logf("mallocs per node: %.2f at ~1k nodes, %.2f at ~4k nodes", small, large)
			if small > tc.max || large > tc.max {
				t.Errorf("mallocs per node %.2f (1k) and %.2f (4k), want <= %v", small, large, tc.max)
			}
			if math.Abs(small-large) > 0.5 {
				t.Errorf("mallocs per node %.2f at 1k vs %.2f at 4k: start-up cost grows with the node count", small, large)
			}
		})
	}
}

// BenchmarkRankStartup reports what building the 8k-node dragonfly
// cluster of scale-8k and running its 1-message incast cost, for each
// transport: construction, rank start-up and one message per client.
func BenchmarkRankStartup(b *testing.B) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := constructConfig(b, 8192, kind, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := NewCluster(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := RunIncast(c, startupIncast); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
