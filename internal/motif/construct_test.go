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

// Building a node costs slots in per-shard arrays and no heap object of
// its own: the NIC attaches to the fabric and the endpoint to the NIC as
// interfaces over those slots, so NewCluster's objects are per shard or
// per cluster (0.05 per node at ~1k nodes, 0.01 at ~8k), and the count
// per node does not grow with the cluster. A per-node name, closure,
// method value or eagerly made map shows here as a step of one per node.
func TestNewClusterAllocsPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 8k-node clusters")
	}
	const maxMallocsPerNode = 0.25
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		for _, rec := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/recovery=%v", kind, rec), func(t *testing.T) {
				small := clusterMallocs(t, constructConfig(t, 1024, kind, rec))
				large := clusterMallocs(t, constructConfig(t, 8192, kind, rec))
				t.Logf("mallocs per node: %.2f at ~1k nodes, %.2f at ~8k nodes", small, large)
				if small > maxMallocsPerNode || large > maxMallocsPerNode {
					t.Errorf("mallocs per node %.2f (1k) and %.2f (8k), want <= %v", small, large, maxMallocsPerNode)
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
// a 1-message incast on it allocates per node: rank start-up (making
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
// credit state (RDMA) for every client are a few arrays, and the records
// a Figure 1 handshake, a put or a receive needs are carved from its
// shard's slabs. The constant-delay stages (host post, CQ and byte polls,
// reaps) are one per shard. A rank is a slot in its motif's record array
// and one bound step. So the objects a 1-message incast allocates per
// node, start-up and message together, do not grow with the node count,
// and stay under the pinned values: the measured 1.25 (RVMA) and 1.45
// (RDMA) per node at 1k nodes, plus a quarter. What is left is mostly the
// rank's bound step, one per node, and the slab chunks: packets and
// the RDMA registration are their own events, the stages that follow a
// NIC's own send pipe and bus are set to named pointer types over the
// endpoint, and the first rings of their queues, of the queue pairs and
// of the transports' wait queues are carved from the shard's slabs. A
// per-peer record, closure or slice at start-up shows at the server as a
// step of one per node. Skipped under
// -short, which builds a 4k-node cluster.
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
		{KindRVMA, 1.5},
		{KindRDMA, 1.7},
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

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// parkedHeapPerRank builds the cluster of cfg, starts the 1-message
// incast on it and runs every event of simulated time zero. By then each
// rank has run its first step up to its first wait: an RVMA client has
// sent its message and waits in WaitSent for the put to leave its NIC, an
// RDMA client waits in Prepare for its handshake, and the server waits
// in Recv. It returns the live heap the parked ranks add to the built
// cluster, per rank, and finishes the run.
func parkedHeapPerRank(t *testing.T, cfg ClusterConfig) float64 {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	job, err := startIncast(c, startupIncast)
	if err != nil {
		t.Fatal(err)
	}
	for c.Eng.Pending() > 0 && c.Eng.NextEventTime() == 0 {
		c.Eng.Step()
	}
	for _, rank := range job.clients {
		var parked bool
		switch tp := c.Transports[rank].(type) {
		case *rvmaTransport:
			parked = tp.sending.Len() > 0
		case *rdmaTransport:
			parked = tp.peer(0).send.prep != nil
		}
		if !parked {
			t.Fatalf("client %d is not parked at the end of time zero", rank)
		}
	}
	parked := liveHeap()
	runtime.KeepAlive(job)
	c.Run()
	if !job.fin.AllDone() {
		t.Fatal("the incast deadlocked")
	}
	return float64(parked-before) / float64(len(c.Transports))
}

// A parked rank costs the heap a constant number of bytes, whatever the
// rank count: its step record, its bound step, its wait, what its one
// message or handshake holds in flight and the mailbox or peer record
// the server keeps for it. A per-rank cost that grows with the rank
// count (a table indexed by rank, say) shows here as a gap between the
// ~1k-node and ~8k-node figures. The figures are logged: about 2,000 B
// (RVMA) and 1,180 B (RDMA) per rank.
func TestParkedRankHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 8k-node clusters")
	}
	if sim.DebugEnabled {
		t.Skip("simdebug's periodic queue sweeps make an 8k-node run take minutes; the gate is for normal builds")
	}
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		t.Run(kind.String(), func(t *testing.T) {
			small := parkedHeapPerRank(t, constructConfig(t, 1024, kind, false))
			large := parkedHeapPerRank(t, constructConfig(t, 8192, kind, false))
			t.Logf("live heap per parked rank: %.0f B at ~1k nodes, %.0f B at ~8k nodes", small, large)
			if math.Abs(small-large) > 0.1*large {
				t.Errorf("live heap per parked rank %.0f B at ~1k nodes vs %.0f B at ~8k: it grows with the rank count", small, large)
			}
		})
	}
}
