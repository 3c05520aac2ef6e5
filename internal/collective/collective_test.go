package collective

import (
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/motif"
	"rvma/internal/sim"
	"rvma/internal/stats"
	"rvma/internal/topology"
)

// run executes a collective on a fresh cluster and returns the makespan.
func run(t *testing.T, kind motif.TransportKind, op Op, ranks int) sim.Time {
	t.Helper()
	topo := topology.NewSingleSwitch(ranks)
	cfg := motif.DefaultClusterConfig(topo, kind)
	cfg.Routing = fabric.RouteAdaptive
	c, err := motif.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := RunCollective(c, DefaultConfig(op))
	if err != nil {
		t.Fatalf("%s/%v: %v", op, kind, err)
	}
	return tm
}

func TestAllCollectivesCompleteBothTransports(t *testing.T) {
	for _, op := range []Op{OpBarrier, OpAllreduce, OpBroadcast, OpAllgather} {
		for _, kind := range []motif.TransportKind{motif.KindRVMA, motif.KindRDMA} {
			for _, ranks := range []int{2, 7, 8, 16} { // includes non-power-of-two
				if tm := run(t, kind, op, ranks); tm <= 0 {
					t.Fatalf("%s/%v/%d ranks: zero makespan", op, kind, ranks)
				}
			}
		}
	}
}

func TestRVMAWinsCollectives(t *testing.T) {
	for _, op := range []Op{OpBarrier, OpAllreduce, OpBroadcast} {
		rv := run(t, motif.KindRVMA, op, 16)
		rd := run(t, motif.KindRDMA, op, 16)
		sp := stats.Speedup(rd.Seconds(), rv.Seconds())
		if sp <= 1.0 {
			t.Fatalf("%s: RVMA speedup %.2f, want > 1 (latency-bound chains of small messages)", op, sp)
		}
	}
}

func TestBarrierScalesLogarithmically(t *testing.T) {
	// Dissemination barrier rounds grow as ceil(log2 n): time at 16 ranks
	// must be well under 4x the time at 2 ranks (2 ranks = 1 round,
	// 16 ranks = 4 rounds, contention aside).
	t2 := run(t, motif.KindRVMA, OpBarrier, 2)
	t16 := run(t, motif.KindRVMA, OpBarrier, 16)
	if t16 >= 8*t2 {
		t.Fatalf("barrier(16) = %v vs barrier(2) = %v: worse than linear in rounds", t16, t2)
	}
}

func TestSingleRankCollectivesAreFree(t *testing.T) {
	// The collective schedules must be empty at n=1 (RunCollective itself
	// requires 2+, so build the schedules directly).
	for name, s := range map[string][]action{
		"barrier":   barrier(nil, 0, 1),
		"allreduce": allreduce(nil, 0, 1, 16, 8, 0),
		"broadcast": broadcast(nil, 0, 1, 0, 64),
		"allgather": allgather(nil, 0, 1, 64),
	} {
		if len(s) != 0 {
			t.Errorf("single-rank %s makes %d actions, want none", name, len(s))
		}
	}
}

func TestRunCollectiveValidation(t *testing.T) {
	topo := topology.NewSingleSwitch(1)
	c, err := motif.NewCluster(motif.DefaultClusterConfig(topo, motif.KindRVMA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCollective(c, DefaultConfig(OpBarrier)); err == nil {
		t.Fatal("single-rank RunCollective should error")
	}
	topo2 := topology.NewSingleSwitch(4)
	c2, _ := motif.NewCluster(motif.DefaultClusterConfig(topo2, motif.KindRVMA))
	bad := DefaultConfig(OpBarrier)
	bad.Iterations = 0
	if _, err := RunCollective(c2, bad); err == nil {
		t.Fatal("zero iterations should error")
	}
}

func TestBroadcastNonZeroRoot(t *testing.T) {
	topo := topology.NewSingleSwitch(6)
	cfg := motif.DefaultClusterConfig(topo, motif.KindRVMA)
	c, err := motif.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay(c, 4096, 1, func(s []action, me int) []action {
		return broadcast(s, me, 6, 3, 4096) // root 3
	}); err != nil {
		t.Fatalf("broadcast from root 3: %v", err)
	}
}

// A collective finishes through the cluster's one run path, which drops
// the fabric's recycled packets (and every other pool sized by the run's
// peak in flight) once the run is over.
func TestRunCollectiveLeavesNoFreePackets(t *testing.T) {
	for _, kind := range []motif.TransportKind{motif.KindRVMA, motif.KindRDMA} {
		c, err := motif.NewCluster(motif.DefaultClusterConfig(topology.NewSingleSwitch(8), kind))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunCollective(c, DefaultConfig(OpAllreduce)); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if c.Net.TotalStats().PacketsDelivered == 0 {
			t.Fatalf("%v: the collective delivered no packets", kind)
		}
		if n := c.Net.FreePackets(); n != 0 {
			t.Fatalf("%v: fabric holds %d free packets after the collective, want 0", kind, n)
		}
	}
}
