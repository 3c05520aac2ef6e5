package motif

import (
	"errors"
	"fmt"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/recovery"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// lossyClusterConfig builds an incast-sized cluster config with receiver-
// ingress loss at the given rate, recovery optional.
func lossyClusterConfig(kind TransportKind, rate float64, rec bool) ClusterConfig {
	cfg := DefaultClusterConfig(topology.NewSingleSwitch(8), kind)
	cfg.Faults = &fabric.FaultPlan{DropRate: rate}
	if rec {
		rc := recovery.DefaultConfig()
		cfg.Recovery = &rc
	}
	return cfg
}

// dragonflyClusterConfig builds the cluster of rvmasim's -topology
// dragonfly -routing adaptive -nodes 64 -gbps 100 -seed 42 -drop-rate
// rate: recovery at its defaults rides along with any loss.
func dragonflyClusterConfig(t *testing.T, kind TransportKind, rate float64) ClusterConfig {
	t.Helper()
	topo, err := topology.ForNodeCount(topology.KindDragonfly, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(topo, kind)
	cfg.Routing = fabric.RouteAdaptive
	cfg.Seed = 42
	cfg.ApplyLinkSpeed(100)
	if rate > 0 {
		cfg.Faults = &fabric.FaultPlan{DropRate: rate}
		rc := recovery.DefaultConfig()
		cfg.Recovery = &rc
	}
	return cfg
}

// TestIncastCompletesUnderLossWithRecovery is the tentpole's acceptance
// check: at 5% receiver-ingress drop, both transports deliver every
// message within the retry budget — the run finishes, every recovery
// operation completes, nothing exhausts — on an 8-node switch and on the
// 64-node dragonfly.
func TestIncastCompletesUnderLossWithRecovery(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		t.Run(kind.String(), func(t *testing.T) {
			for _, net := range []struct {
				name string
				cfg  ClusterConfig
			}{
				{"single-8", lossyClusterConfig(kind, 0.05, true)},
				{"dragonfly-64", dragonflyClusterConfig(t, kind, 0.05)},
			} {
				t.Run(net.name, func(t *testing.T) {
					c, err := NewCluster(net.cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := RunIncast(c, DefaultIncastConfig()); err != nil {
						t.Fatalf("incast under loss with recovery: %v", err)
					}
					s := c.RecoveryStats()
					if s.OpsStarted == 0 {
						t.Fatal("recovery layer saw no operations")
					}
					if s.OpsCompleted != s.OpsStarted {
						t.Fatalf("completed %d of %d recovery ops", s.OpsCompleted, s.OpsStarted)
					}
					if s.Exhausted != 0 {
						t.Fatalf("%d ops exhausted the retry budget", s.Exhausted)
					}
					if s.Retransmits == 0 {
						t.Fatal("5%% drop produced zero retransmits — faults not reaching the wire?")
					}
					if c.Net.TotalStats().PacketsDropped == 0 {
						t.Fatal("fabric dropped nothing at 5%% rate")
					}
				})
			}
		})
	}
}

// TestIncastDeadlocksUnderLossWithoutRecovery pins the counterfactual the
// sweep table reports: the same loss without the recovery layer wedges
// both transports (a lost message, ack, fence, credit or handshake leaves
// some rank waiting forever).
func TestIncastDeadlocksUnderLossWithoutRecovery(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		t.Run(kind.String(), func(t *testing.T) {
			c, err := NewCluster(lossyClusterConfig(kind, 0.05, false))
			if err != nil {
				t.Fatal(err)
			}
			_, err = RunIncast(c, DefaultIncastConfig())
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("err = %v, want deadlock", err)
			}
		})
	}
}

// TestRecoveryHarmlessOnLosslessFabric checks the recovery layer is pure
// overheadless machinery when nothing drops: no retransmits, no timeouts
// firing into retries, no reclaims, and the run completes.
func TestRecoveryHarmlessOnLosslessFabric(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := DefaultClusterConfig(topology.NewSingleSwitch(8), kind)
			rc := recovery.DefaultConfig()
			cfg.Recovery = &rc
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunIncast(c, DefaultIncastConfig()); err != nil {
				t.Fatal(err)
			}
			s := c.RecoveryStats()
			if s.Retransmits != 0 || s.Exhausted != 0 || s.Reclaims != 0 {
				t.Fatalf("lossless run paid recovery work: %+v", s)
			}
			if s.OpsCompleted != s.OpsStarted {
				t.Fatalf("completed %d of %d ops", s.OpsCompleted, s.OpsStarted)
			}
		})
	}
}

// TestIncastUnderLossDeterministic re-runs a lossy recovery incast and
// requires identical makespan and stats: drops, backoff jitter and
// retransmit schedules all replay exactly.
func TestIncastUnderLossDeterministic(t *testing.T) {
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		t.Run(kind.String(), func(t *testing.T) {
			run := func() (string, error) {
				c, err := NewCluster(lossyClusterConfig(kind, 0.05, true))
				if err != nil {
					return "", err
				}
				mk, err := RunIncast(c, DefaultIncastConfig())
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%d %+v %d", mk, c.RecoveryStats(), c.Net.TotalStats().PacketsDropped), nil
			}
			a, err := run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("nondeterministic lossy run:\n%s\n%s", a, b)
			}
		})
	}
}

// TestWaitSentOutlivesSendsAbandonedAtTheNIC: an operation the recovery
// layer gives up on while its first attempt still waits at the NIC
// counts as sent once that attempt leaves, so WaitSent returns, and its
// record goes back to its list only then. Every message is posted at
// once, and with a 1 us timeout and no retries the later ones are
// abandoned still queued behind the rest; the fabric loses nothing, so
// every message still arrives.
func TestWaitSentOutlivesSendsAbandonedAtTheNIC(t *testing.T) {
	const messages = 64
	for _, kind := range []TransportKind{KindRVMA, KindRDMA} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := DefaultClusterConfig(topology.NewSingleSwitch(8), kind)
			cfg.RDMABuffers = messages // every message has its credit at once
			rc := recovery.DefaultConfig()
			rc.Timeout, rc.MaxRetries = sim.Microsecond, 0
			cfg.Recovery = &rc
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			size := fabric.DefaultConfig().MTU
			var waited bool
			sender := c.Transports[0]
			c.TagFor(0).Schedule(0, func() {
				send := func() {
					for i := 0; i < messages; i++ {
						sender.Send(1, size)
					}
					if sender.WaitSent(1, func() { waited = true }) {
						waited = true
					}
				}
				if sender.Prepare(nil, []int{1}, size, send) {
					send()
				}
			})
			var received int
			receiver := c.Transports[1]
			var recv func()
			recv = func() {
				for received < messages {
					if !receiver.Recv(0, size, func() { received++; recv() }) {
						return
					}
					received++
				}
			}
			c.TagFor(1).Schedule(0, func() {
				if receiver.Prepare([]int{0}, nil, size, recv) {
					recv()
				}
			})
			c.Run()
			if s := c.RecoveryStats(); s.Exhausted == 0 {
				t.Fatalf("no operation was abandoned (stats %+v)", s)
			}
			if !waited {
				t.Fatal("WaitSent never returned")
			}
			if received != messages {
				t.Fatalf("receiver got %d of %d messages", received, messages)
			}
		})
	}
}
