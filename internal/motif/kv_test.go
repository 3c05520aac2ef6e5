package motif

import (
	"fmt"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/metrics"
	"rvma/internal/recovery"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// kvCell is a 16-rank KV cell on a dragonfly: its cluster and workload.
func kvCell(t *testing.T, kind TransportKind, shards int, drop float64, skew float64) (ClusterConfig, KVConfig) {
	t.Helper()
	topo, err := topology.ForNodeCount(topology.KindDragonfly, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(topo, kind)
	cfg.Shards = shards
	if drop > 0 {
		cfg.Faults = &fabric.FaultPlan{DropRate: drop}
		rc := recovery.DefaultConfig()
		cfg.Recovery = &rc
	}
	kcfg := DefaultKVConfig(topo.NumNodes())
	kcfg.Seed = cfg.Seed
	kcfg.Skew = skew
	kcfg.OpsPerProxy = 24
	return cfg, kcfg
}

// runKVOnce runs a 16-rank KV cell and returns the makespan, result and
// executed-event count.
func runKVOnce(t *testing.T, kind TransportKind, shards int, drop float64, skew float64) (sim.Time, *KVResult, uint64) {
	t.Helper()
	cfg, kcfg := kvCell(t, kind, shards, drop, skew)
	mk, res, c := runKVCell(t, cfg, kcfg)
	return mk, res, c.EventsExecuted()
}

// runKVCell runs one KV cell and returns its makespan, result and cluster.
func runKVCell(t *testing.T, cfg ClusterConfig, kcfg KVConfig) (sim.Time, *KVResult, *Cluster) {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk, res, err := RunKV(c, kcfg)
	if err != nil {
		t.Fatalf("RunKV: %v", err)
	}
	return mk, res, c
}

// TestKVCompletesAndAccounts: every issued op completes and is accounted
// once, on the lossless 16-rank cell and on rvmasim's 64-node dragonfly
// cell at 5% loss with recovery (-motif kv -drop-rate 0.05, skew 0.99),
// where the loss must also cost retransmits.
func TestKVCompletesAndAccounts(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		t.Run(kind.String(), func(t *testing.T) {
			small, smallKV := kvCell(t, kind, 0, 0, 0.99)
			lossy := dragonflyClusterConfig(t, kind, 0.05)
			lossyKV := DefaultKVConfig(lossy.Topology.NumNodes())
			lossyKV.Seed = lossy.Seed
			for _, cell := range []struct {
				name string
				cfg  ClusterConfig
				kcfg KVConfig
			}{
				{"dragonfly-16", small, smallKV},
				{"dragonfly-64-loss", lossy, lossyKV},
			} {
				t.Run(cell.name, func(t *testing.T) {
					mk, res, c := runKVCell(t, cell.cfg, cell.kcfg)
					if mk <= 0 {
						t.Fatal("non-positive makespan")
					}
					proxies := res.Proxies
					want := uint64(proxies * cell.kcfg.OpsPerProxy)
					if res.Issued != want || res.Completed != want {
						t.Fatalf("issued %d completed %d, want %d", res.Issued, res.Completed, want)
					}
					if res.ServerApplied != res.Completed {
						t.Fatalf("servers applied %d, proxies completed %d", res.ServerApplied, res.Completed)
					}
					if res.Gets+res.Puts+res.CASOK+res.CASFail != res.Completed {
						t.Fatalf("verb counts %d+%d+%d+%d do not sum to completed %d",
							res.Gets, res.Puts, res.CASOK, res.CASFail, res.Completed)
					}
					if res.SimulatedClients < 1<<20 {
						t.Fatalf("simulated clients %d, want >= 2^20", res.SimulatedClients)
					}
					if res.DistinctClients < proxies || res.PayloadBytes == 0 {
						t.Fatalf("distinct clients %d payload %d: fan-in not observable",
							res.DistinctClients, res.PayloadBytes)
					}
					if res.Lat.Count() != res.Completed {
						t.Fatalf("latency samples %d, want %d", res.Lat.Count(), res.Completed)
					}
					if cell.cfg.Faults != nil && c.RecoveryStats().Retransmits == 0 {
						t.Fatal("5% loss produced zero retransmits")
					}
				})
			}
		})
	}
}

// TestKVHotKeySkewRaisesCASConflicts checks the contention signal: with
// every proxy hammering the same hot keys through stale shared caches,
// CAS failures must be more frequent than under a uniform keyspace.
func TestKVHotKeySkewRaisesCASConflicts(t *testing.T) {
	_, uniform, _ := runKVOnce(t, KindRVMA, 0, 0, 0)
	_, skewed, _ := runKVOnce(t, KindRVMA, 0, 0, 1.2)
	uf := float64(uniform.CASFail) / float64(uniform.CASFail+uniform.CASOK+1)
	sf := float64(skewed.CASFail) / float64(skewed.CASFail+skewed.CASOK+1)
	if sf <= uf {
		t.Fatalf("CAS conflict rate should rise with skew: uniform %.3f, skewed %.3f", uf, sf)
	}
}

// kvResString renders every observable field of a KVResult by value
// (histograms as count/mean/quantiles, not pointers) for byte comparison.
func kvResString(r *KVResult) string {
	h := func(h *metrics.Histogram) string {
		return fmt.Sprintf("[n%d mean%v p50:%v p99:%v p999:%v max%v]",
			h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999), h.Max())
	}
	return fmt.Sprintf("prox%d cpp%d sim%d distinct%d iss%d comp%d get%d put%d casok%d casfail%d pay%d applied%d lat%s get%s put%s cas%s",
		r.Proxies, r.ClientsPerProxy, r.SimulatedClients, r.DistinctClients,
		r.Issued, r.Completed, r.Gets, r.Puts, r.CASOK, r.CASFail,
		r.PayloadBytes, r.ServerApplied, h(r.Lat), h(r.GetLat), h(r.PutLat), h(r.CASLat))
}

// TestKVShardCountInvariant is the motif-level determinism check: the
// makespan, executed-event count and full application-level result must
// be byte-identical at shards 1 and 4, for both transports, with and
// without loss + recovery.
func TestKVShardCountInvariant(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		for _, drop := range []float64{0, 0.05} {
			t.Run(fmt.Sprintf("%s/drop=%v", kind, drop), func(t *testing.T) {
				mk1, res1, ev1 := runKVOnce(t, kind, 1, drop, 0.99)
				mk4, res4, ev4 := runKVOnce(t, kind, 4, drop, 0.99)
				if mk1 != mk4 {
					t.Fatalf("makespan differs: shards=1 %v, shards=4 %v", mk1, mk4)
				}
				if ev1 != ev4 {
					t.Fatalf("event count differs: shards=1 %d, shards=4 %d", ev1, ev4)
				}
				s1, s4 := kvResString(res1), kvResString(res4)
				if s1 != s4 {
					t.Fatalf("results differ across shard counts:\n s1: %s\n s4: %s", s1, s4)
				}
			})
		}
	}
}

// TestKVZeroShardsIsOneShard pins the shard-count normalisation: a
// cluster config that leaves Shards at its zero value builds the same
// one-shard simulation as Shards 1.
func TestKVZeroShardsIsOneShard(t *testing.T) {
	mk0, res0, _ := runKVOnce(t, KindRVMA, 0, 0, 0.99)
	mk1, res1, _ := runKVOnce(t, KindRVMA, 1, 0, 0.99)
	if mk0 != mk1 {
		t.Fatalf("makespan differs: shards=0 %v, shards=1 %v", mk0, mk1)
	}
	s0, s1 := kvResString(res0), kvResString(res1)
	if s0 != s1 {
		t.Fatalf("results differ:\n heap: %s\n s1:   %s", s0, s1)
	}
}
