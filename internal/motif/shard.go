// Shard-group support: placement-aware rank scheduling, per-shard metric
// registries with an exact post-run merge, and shard-set telemetry
// registration. The rule throughout is single-writer state: every probe
// and every handle is owned by the shard that owns the node, and
// aggregation happens either in integer arithmetic (order-free) or after
// the group is quiescent.
package motif

import (
	"errors"
	"fmt"
	"slices"

	"rvma/internal/metrics"
	"rvma/internal/sim"
	"rvma/internal/telemetry"
)

// TagFor returns the "motif" handle bound to the engine that owns rank's
// node. A rank schedules its steps through it, so its events execute
// inside the owning shard's windows.
func (c *Cluster) TagFor(rank int) sim.Tagged {
	return c.Tags[c.Net.NodeShard(rank)]
}

// Run executes the simulation to completion, then drops the fabric's
// recycled packets, each shard engine's event and queue pools, each
// endpoint's stage arrays, spare buffers and spare receives and its
// shard's stage arrays and slab chunks, each transport's idle send
// waits and receive waits and its shard's idle reliable-send records and
// slab chunks, each node's spare pages and the stage arrays each
// recovery manager shares with its shard, so a finished cluster keeps
// nothing sized by the run's peak in flight. Every motif and collective
// finishes through it.
func (c *Cluster) Run() {
	c.Group.Run()
	c.Net.DropFreePackets()
	for i := 0; i < c.Group.Shards(); i++ {
		c.Group.Shard(i).DropPools()
	}
	for _, ep := range c.rvmaEPs {
		ep.DropPools()
	}
	for _, ep := range c.rdmaEPs {
		ep.DropPools()
	}
	for _, tp := range c.Transports {
		if d, ok := tp.(interface{ dropPools() }); ok {
			d.dropPools()
		}
	}
	for _, n := range c.nics {
		n.Memory().DropPools()
	}
	for _, m := range c.recMgrs {
		m.DropPools()
	}
}

// EventsExecuted returns the executed-event count across every shard.
func (c *Cluster) EventsExecuted() uint64 { return c.Group.TotalExecuted() }

// ErrDeadlock is the error a job returns, wrapped with its name, when its
// run went quiet with a rank that never finished.
var ErrDeadlock = errors.New("deadlock")

// FinishLine replaces a completion Gate for motif and collective jobs:
// each rank records its completion time in its own slot (single-writer, so
// ranks on different shards never touch shared state), and the job's
// finish time is the maximum, read after the run when every shard is
// quiescent. Both Arrive and the reads are synchronous bookkeeping — no
// events.
type FinishLine struct {
	done []bool
	at   []sim.Time
}

// NewFinishLine returns a finish line for ranks ranks.
func NewFinishLine(ranks int) *FinishLine {
	return &FinishLine{done: make([]bool, ranks), at: make([]sim.Time, ranks)}
}

// Arrive records rank's completion at its engine's current time.
func (f *FinishLine) Arrive(rank int, now sim.Time) {
	f.done[rank] = true
	f.at[rank] = now
}

// AllDone reports whether every rank arrived; false after a run means the
// job deadlocked.
func (f *FinishLine) AllDone() bool { return !slices.Contains(f.done, false) }

// FinishTime returns the last arrival time — the job's makespan.
func (f *FinishLine) FinishTime() sim.Time {
	var t sim.Time
	for _, a := range f.at {
		t = max(t, a)
	}
	return t
}

// AttachShardMetrics attaches primary to every layer of the cluster, so
// one snapshot holds fabric, NIC and protocol state for a run. A one-shard
// cluster writes primary directly, which is what spans, attribution and
// the Perfetto timeline need: enable them on primary before the run. A
// multi-shard cluster gets one private shadow registry per shard (each
// node's layers write the shadow of the node's owning shard) plus
// aggregate collectors on the primary; FinishMetrics folds the shadows
// into the primary after the run.
func (c *Cluster) AttachShardMetrics(primary *metrics.Registry) {
	if primary == nil {
		return
	}
	g := c.Group
	c.shadowRegs = []*metrics.Registry{primary}
	if g.Shards() > 1 {
		c.shadowRegs = make([]*metrics.Registry, g.Shards())
		for i := range c.shadowRegs {
			c.shadowRegs[i] = metrics.NewRegistry()
		}
	}
	c.Net.SetMetricsSharded(primary, c.shadowRegs)
	shadowOf := func(node int) *metrics.Registry {
		return c.shadowRegs[c.Net.NodeShard(node)]
	}
	for node, nc := range c.nics {
		nc.SetMetrics(shadowOf(node))
	}
	for _, ep := range c.rvmaEPs {
		ep.SetMetrics(shadowOf(ep.Node()))
	}
	for _, ep := range c.rdmaEPs {
		ep.SetMetrics(shadowOf(ep.Node()))
	}
	for node, m := range c.recMgrs {
		m.SetMetrics(shadowOf(node), node) // managers are built per node, in node order
	}
	primary.AddCollector(func() {
		primary.Gauge("sim.queue_depth").Set(float64(g.TotalPending()))
		primary.Gauge("sim.events_executed").Set(float64(g.TotalExecuted()))
	})
}

// FinishMetrics folds the per-shard shadow registries into the primary:
// counters add, histograms merge their integer counts and picosecond sums
// exactly, per-node gauges copy over (each lives in exactly one shadow).
// Call after the run and before the primary's snapshot; a no-op on a
// one-shard cluster, whose layers wrote the primary directly.
func (c *Cluster) FinishMetrics(primary *metrics.Registry) {
	if primary == nil || c.Group.Shards() == 1 {
		return
	}
	for _, sh := range c.shadowRegs {
		sh.Collect()
		primary.MergeFrom(sh)
	}
}

// RegisterTelemetryShards registers every layer's time-series probes on
// ss: engine queue depth, fabric queue/utilization (including the
// per-switch heatmap columns), NIC pipeline and DMA backlogs, RVMA
// posted-buffer occupancy / counter progress / NACK and drop counts, and
// RDMA handshake and outstanding-registration counts. Aggregates are
// always registered; per-node columns only up to maxPerNodeProbes nodes.
// Every probe reads only the nodes its shard owns, and the declared merge
// kinds (integer sums, picosecond sums) make the merged CSV a pure
// function of the model, identical at any shard count. Call before
// ShardSet.Start.
func (c *Cluster) RegisterTelemetryShards(ss *telemetry.ShardSet) {
	if ss == nil {
		return
	}
	g := c.Group
	ss.Register("sim.queue_depth", telemetry.KindSum, func(shard int) float64 {
		// Own heap plus own outbox: every pending event is in exactly one
		// of these containers, so the sum is the group's depth.
		return float64(g.Shard(shard).Pending() + g.OutboxCount(shard))
	})
	ss.Register("sim.events_executed", telemetry.KindSum, func(shard int) float64 {
		return float64(g.Shard(shard).EventsExecuted())
	})
	c.Net.RegisterTelemetrySharded(ss)

	nodesBy := make([][]int, g.Shards())
	for node := range c.nics {
		s := c.Net.NodeShard(node)
		nodesBy[s] = append(nodesBy[s], node)
	}
	ss.Register("nic.send_backlog_ns_total", telemetry.KindSumPS, func(shard int) float64 {
		var t sim.Time
		for _, node := range nodesBy[shard] {
			t += c.nics[node].SendBacklog()
		}
		return t.Picoseconds()
	})
	ss.Register("nic.recv_backlog_ns_total", telemetry.KindSumPS, func(shard int) float64 {
		var t sim.Time
		for _, node := range nodesBy[shard] {
			t += c.nics[node].RecvBacklog()
		}
		return t.Picoseconds()
	})
	ss.Register("nic.dma_backlog_ns_total", telemetry.KindSumPS, func(shard int) float64 {
		var t sim.Time
		for _, node := range nodesBy[shard] {
			t += c.nics[node].DMABacklog()
		}
		return t.Picoseconds()
	})
	perNode := len(c.nics) <= maxPerNodeProbes

	if len(c.rvmaEPs) > 0 {
		ss.Register("rvma.posted_buffers_total", telemetry.KindSum, func(shard int) float64 {
			total := 0
			for _, node := range nodesBy[shard] {
				total += c.rvmaEPs[node].PostedBuffers()
			}
			return float64(total)
		})
		ss.Register("rvma.counter_progress_total", telemetry.KindSum, func(shard int) float64 {
			var total int64
			for _, node := range nodesBy[shard] {
				total += c.rvmaEPs[node].CounterProgress()
			}
			return float64(total)
		})
		ss.Register("rvma.epochs_total", telemetry.KindSum, func(shard int) float64 {
			var total int64
			for _, node := range nodesBy[shard] {
				total += c.rvmaEPs[node].EpochTotal()
			}
			return float64(total)
		})
		for _, ep := range c.rvmaEPs {
			s := c.Net.NodeShard(ep.Node())
			ss.CounterFrom("rvma.nacks_total", s, &ep.Stats.Nacks)
			ss.CounterFrom("rvma.rewinds_total", s, &ep.Stats.Rewinds)
			ss.CounterFrom("rvma.drops_total", s, &ep.Stats.Drops)
		}
		if perNode {
			for _, ep := range c.rvmaEPs {
				ep := ep
				ss.RegisterLocal(fmt.Sprintf("rvma.posted_buffers.n%03d", ep.Node()),
					c.Net.NodeShard(ep.Node()), func() float64 {
						return float64(ep.PostedBuffers())
					})
			}
		}
	}
	for node, m := range c.recMgrs {
		s := c.Net.NodeShard(node)
		ss.CounterFrom("recovery.retransmits_total", s, &m.Stats.Retransmits)
		ss.CounterFrom("recovery.timeouts_total", s, &m.Stats.Timeouts)
		ss.CounterFrom("recovery.exhausted_total", s, &m.Stats.Exhausted)
	}
	if len(c.rdmaEPs) > 0 {
		ss.Register("rdma.pending_registrations_total", telemetry.KindSum, func(shard int) float64 {
			total := 0
			for _, node := range nodesBy[shard] {
				total += c.rdmaEPs[node].PendingRegistrations()
			}
			return float64(total)
		})
		for _, ep := range c.rdmaEPs {
			ss.CounterFrom("rdma.handshakes_total", c.Net.NodeShard(ep.Node()), &ep.Stats.Handshakes)
		}
		ss.Register("rdma.sends_held_total", telemetry.KindSum, func(shard int) float64 {
			total := 0
			for _, node := range nodesBy[shard] {
				total += c.rdmaEPs[node].PendingSendsHeld()
			}
			return float64(total)
		})
	}
}
