package motif

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"rvma/internal/recovery"
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
