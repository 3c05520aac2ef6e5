package motif

import (
	"fmt"
	"runtime"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/memory"
	"rvma/internal/recovery"
)

// postedBytes returns the simulated memory the RVMA mailboxes of c keep
// posted (each buffer plus its completion cell), and the most the Rewind
// history can hold on top: history buffers per mailbox.
func postedBytes(c *Cluster, history int) (posted, retained int) {
	for _, tp := range c.Transports {
		rt := tp.(*rvmaTransport)
		for _, box := range rt.boxes {
			per := int(box.maxMsg) + memory.CacheLineSize
			posted += int(rt.depth) * per
			retained += history * per
		}
	}
	return posted, retained
}

// An RVMA mailbox releases every buffer it consumes, so however many
// messages a run moves, a node's simulated memory at the end is exactly the
// buffers its mailboxes keep posted, and no payload bytes are held.
func TestRVMAMailboxMemoryIsThePostedBuffers(t *testing.T) {
	topo := smallTopo(t, 32)
	runs := []struct {
		name string
		run  func(c *Cluster) error
	}{
		{"sweep3d", func(c *Cluster) error {
			_, err := RunSweep3D(c, DefaultSweep3DConfig(topo.NumNodes()))
			return err
		}},
		{"halo3d", func(c *Cluster) error {
			_, err := RunHalo3D(c, DefaultHalo3DConfig(topo.NumNodes()))
			return err
		}},
		{"incast", func(c *Cluster) error {
			_, err := RunIncast(c, IncastConfig{Messages: 64, MsgBytes: 4096})
			return err
		}},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(DefaultClusterConfig(topo, KindRVMA))
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(c); err != nil {
				t.Fatal(err)
			}
			posted, _ := postedBytes(c, 0)
			live, resident := c.HostMemory()
			if live != posted || resident != 0 {
				t.Fatalf("live %d B, resident %d B; want the %d B posted and nothing resident", live, resident, posted)
			}
		})
	}
}

// Under loss the window guard needs Rewind history, so each mailbox may
// also retain its last two completed buffers, and no more.
func TestRVMAMailboxMemoryUnderRecovery(t *testing.T) {
	c, err := NewCluster(lossyClusterConfig(KindRVMA, 0.05, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunIncast(c, IncastConfig{Messages: 64, MsgBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	posted, retained := postedBytes(c, 2)
	live, resident := c.HostMemory()
	if live < posted || live > posted+retained {
		t.Fatalf("live %d B, want between the %d B posted and %d B with history", live, posted, posted+retained)
	}
	// Only completion cells of retained buffers are ever written.
	if maxCells := retained / (4096 + memory.CacheLineSize) * memory.CacheLineSize; resident > maxCells {
		t.Fatalf("resident %d B, want at most the %d B of retained completion cells", resident, maxCells)
	}
}

// The fabric recycles packets through per-shard free lists while a run is
// going, and a finished run drops them: whatever the shard count, and
// although a packet sent from one shard is freed on the shard of its
// destination, a finished cluster keeps no packet live.
func TestRunLeavesNoFreePackets(t *testing.T) {
	topo := smallTopo(t, 32)
	runs := []struct {
		name string
		run  func(c *Cluster) error
	}{
		{"sweep3d", func(c *Cluster) error {
			_, err := RunSweep3D(c, DefaultSweep3DConfig(topo.NumNodes()))
			return err
		}},
		{"incast", func(c *Cluster) error {
			_, err := RunIncast(c, DefaultIncastConfig())
			return err
		}},
	}
	for _, tc := range runs {
		for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", tc.name, kind, shards), func(t *testing.T) {
					cfg := DefaultClusterConfig(topo, kind)
					cfg.Shards = shards
					c, err := NewCluster(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := tc.run(c); err != nil {
						t.Fatal(err)
					}
					if st := c.Net.TotalStats(); st.PacketsDelivered == 0 {
						t.Fatal("the run delivered no packets")
					}
					if n := c.Net.FreePackets(); n != 0 {
						t.Fatalf("fabric holds %d free packets after the run, want 0", n)
					}
				})
			}
		}
	}
}

// The endpoints, transports and recovery managers on a shard share its
// constant-delay stages and the slabs their records are carved from, and
// a finished run drops them with the other pools: after Cluster.Run no
// stage holds an array, no slab holds a chunk and no list an idle
// record, on both transports and at one shard and two, whose endpoints
// each write only their own shard's record. The lossy incast runs every
// message under the recovery layer at 5% drop, so its attempts, send
// records and shared deadline, retry and guard stages are in use. Run it
// under -race.
func TestRunDropsShardPools(t *testing.T) {
	topo := smallTopo(t, 32)
	incast := func(c *Cluster) error {
		_, err := RunIncast(c, DefaultIncastConfig())
		return err
	}
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		for _, shards := range []int{1, 2} {
			for _, run := range []struct {
				name  string
				run   func(c *Cluster) error
				lossy bool // 5% drop with the recovery layer on
			}{
				{"sweep3d", func(c *Cluster) error {
					_, err := RunSweep3D(c, DefaultSweep3DConfig(topo.NumNodes()))
					return err
				}, false},
				{"incast", incast, false},
				{"lossy incast", incast, true},
			} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", run.name, kind, shards), func(t *testing.T) {
					cfg := DefaultClusterConfig(topo, kind)
					cfg.Shards = shards
					if run.lossy {
						rc := recovery.DefaultConfig()
						cfg.Recovery = &rc
						cfg.Faults = &fabric.FaultPlan{DropRate: 0.05}
					}
					c, err := NewCluster(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := run.run(c); err != nil {
						t.Fatal(err)
					}
					for _, ep := range c.rvmaEPs {
						if held := ep.HeldPools(); len(held) > 0 {
							t.Fatalf("RVMA node %d holds %v after the run", ep.Node(), held)
						}
					}
					for _, ep := range c.rdmaEPs {
						if held := ep.HeldPools(); len(held) > 0 {
							t.Fatalf("RDMA node %d holds %v after the run", ep.Node(), held)
						}
					}
					for rank, tp := range c.Transports {
						held := false
						switch tp := tp.(type) {
						case *rdmaTransport:
							held = tp.sh.held()
						case *rvmaTransport:
							held = tp.sh.held()
						}
						if held {
							t.Fatalf("rank %d's shard holds a slab chunk or an idle record after the run", rank)
						}
					}
					for node := range c.recMgrs {
						if held := c.recMgrs[node].HeldPools(); len(held) > 0 {
							t.Fatalf("node %d's recovery manager holds %v after the run", node, held)
						}
					}
					if run.lossy {
						if st := c.RecoveryStats(); st.Retransmits == 0 || st.OpsCompleted != st.OpsStarted {
							t.Fatalf("recovery stats %+v: want retransmits and every operation acked", st)
						}
					}
				})
			}
		}
	}
}

// A run's live heap is bounded by what is in flight, not by how much the
// run has done: initiators keep no record of operations that left the NIC
// (a reply names its operation), so a run 4x longer ends with the same
// live heap, within 10%, as the short one. Heap is read after a GC with
// the cluster still live. Incast's length knob, Messages, also raises how
// many RVMA puts are in flight at once, because clients wait only for
// local completion; its row holds because a finished run drops the
// engine's event and queue pools, which are sized by that peak.
func TestLiveHeapDoesNotGrowWithRunLength(t *testing.T) {
	topo := smallTopo(t, 64)
	incast := func(c *Cluster, scale int) error {
		cfg := DefaultIncastConfig()
		cfg.Messages *= scale
		_, err := RunIncast(c, cfg)
		return err
	}
	rows := []struct {
		name  string
		run   func(c *Cluster, scale int) error
		lossy bool // 5% drop with the recovery layer on
	}{
		{"sweep3d", func(c *Cluster, scale int) error {
			cfg := DefaultSweep3DConfig(topo.NumNodes())
			cfg.Iterations *= scale
			_, err := RunSweep3D(c, cfg)
			return err
		}, false},
		{"halo3d", func(c *Cluster, scale int) error {
			cfg := DefaultHalo3DConfig(topo.NumNodes())
			cfg.Iterations *= scale
			_, err := RunHalo3D(c, cfg)
			return err
		}, false},
		{"kv", func(c *Cluster, scale int) error {
			cfg := DefaultKVConfig(topo.NumNodes())
			cfg.OpsPerProxy *= scale
			_, _, err := RunKV(c, cfg)
			return err
		}, false},
		{"incast", incast, false},
		{"incast-loss", incast, true},
	}
	for _, row := range rows {
		for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
			t.Run(fmt.Sprintf("%s/%s", row.name, kind), func(t *testing.T) {
				liveHeap := func(scale int) uint64 {
					cfg := DefaultClusterConfig(topo, kind)
					if row.lossy {
						cfg.Faults = &fabric.FaultPlan{DropRate: 0.05}
						rc := recovery.DefaultConfig()
						cfg.Recovery = &rc
					}
					c, err := NewCluster(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := row.run(c, scale); err != nil {
						t.Fatal(err)
					}
					var ms runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&ms)
					runtime.KeepAlive(c)
					return ms.HeapAlloc
				}
				short, long := liveHeap(1), liveHeap(4)
				if float64(long) > 1.1*float64(short) {
					t.Fatalf("live heap %.2f MB after the x4 run, %.2f MB after the x1 run: more than 10%% growth",
						float64(long)/1e6, float64(short)/1e6)
				}
				t.Logf("live heap x1 %.2f MB, x4 %.2f MB", float64(short)/1e6, float64(long)/1e6)
			})
		}
	}
}
