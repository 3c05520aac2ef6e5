// Sharded fabric construction: the same packet network, partitioned
// across a sim.ShardGroup so independent regions of the topology execute
// concurrently.
//
// The partitioning rules exist to keep the sharded run byte-identical to
// its shards=1 twin:
//
//   - Every locus (one node or one switch) is owned by exactly one shard,
//     and every piece of mutable fabric state — resource queues, RNG
//     substreams, priority counters, packet-ID counters, per-shard stats —
//     is touched only by its owner's window. No locks, no atomics, no
//     races.
//   - Every fabric-scheduled event carries a priority unique to its
//     sending locus (pri = -(1 + count*numLoci + locus)), so cross-shard
//     handoffs can never tie with any other event at the same timestamp:
//     heap order, and therefore execution order, is a pure function of
//     model state, independent of the shard count.
//   - Random draws come from per-locus substreams derived with
//     sim.SeedFor, so a switch's jitter sequence depends on the packets
//     that switch saw, not on global execution order.
//
// Cross-shard posts are always at least one link delay in the future,
// which is exactly the group's lookahead (LookaheadFor), so conservative
// synchronization never stalls a legal event.
package fabric

import (
	"fmt"

	"rvma/internal/metrics"
	"rvma/internal/sim"
	"rvma/internal/telemetry"
	"rvma/internal/topology"
)

// fabMetrics is one shard's set of per-event metric handles. All handles
// are nil-safe, so an unattached registry costs one nil check per hook.
type fabMetrics struct {
	latency  *metrics.Histogram
	hops     *metrics.Histogram
	timeline *metrics.Timeline
}

// routeBufs is one shard's reused routing-candidate buffers: the minimal
// and the non-minimal candidate ports of the switch being routed.
type routeBufs struct {
	min, nonMin []int
}

// packetList is one shard's free list of recycled packets, linked through
// Packet.next, and the rest of the chunk NewPacket carves new packets
// from when the list is empty.
type packetList struct {
	head *Packet
	len  int
	slab sim.Slab[Packet]
}

// maxFreePackets bounds one shard's free list. On one shard the list
// holds at most the run's peak of packets in flight, under 20,000 on every
// benchmark workload up to 9,702 ranks. The bound is for cross-shard
// traffic, which frees packets on a shard other than the one that
// allocated them.
const maxFreePackets = 1 << 16

// LookaheadFor returns the minimum simulated time any packet spends on a
// cable under cfg — the conservative synchronization window a sharded run
// of this fabric can use. Static routing never jitters, so the window is
// the full link latency; jittered routing can shrink a hop to
// ScaleF(latency, 1-jitter) (the exact floor of sim.RNG.Jitter). An error
// means the configuration leaves no usable window (e.g. jitter >= 1).
func LookaheadFor(cfg Config) (sim.Time, error) {
	la := cfg.LinkLatency
	if cfg.AdaptiveJitter > 0 && cfg.Routing != RouteStatic {
		la = sim.ScaleF(cfg.LinkLatency, 1-cfg.AdaptiveJitter)
	}
	if la < 1 {
		return 0, fmt.Errorf("fabric: config leaves no sharding lookahead (link latency %v, jitter %v); need a positive minimum link delay",
			cfg.LinkLatency, cfg.AdaptiveJitter)
	}
	return la, nil
}

// NewSharded builds a network over topo that executes on the shard group
// g. seed feeds the per-locus RNG substreams (pass the same model seed the
// group was built from; the substreams are derived, never shared, so the
// draw sequences are identical at any shard count). The group's lookahead
// must not exceed LookaheadFor(cfg), or conservative synchronization would
// be unsound.
func NewSharded(g *sim.ShardGroup, topo topology.Topology, cfg Config, seed uint64) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	la, err := LookaheadFor(cfg)
	if err != nil {
		return nil, err
	}
	if g.Lookahead() > la {
		return nil, fmt.Errorf("fabric: shard group lookahead %v exceeds minimum link delay %v", g.Lookahead(), la)
	}
	engs := make([]*sim.Engine, g.Shards())
	for i := range engs {
		engs[i] = g.Shard(i)
	}
	return build(g, engs, topo, cfg, seed), nil
}

// build is the construction New and NewSharded share: resources, the
// locus-to-shard plan, and per-locus substreams derived from seed.
func build(g *sim.ShardGroup, engs []*sim.Engine, topo topology.Topology, cfg Config, seed uint64) *Network {
	nodes, switches := topo.NumNodes(), topo.NumSwitches()
	n := &Network{
		topo:  topo,
		cfg:   cfg,
		hosts: make([]Host, nodes),
		group: g,
		engs:  engs,
	}
	n.nonMin, _ = topo.(topology.NonMinimalRouter)
	n.detourBias = sim.SerializationTime(cfg.MTU+HeaderBytes, cfg.LinkGbps)

	n.tags = make([]sim.Tagged, len(engs))
	for i, e := range engs {
		n.tags[i] = e.Tag("fabric")
	}
	n.nodeShard, n.swShard = shardPlan(topo, len(engs))
	n.numLoci = nodes + switches
	n.priCount = make([]uint64, n.numLoci)
	n.nextIDs = make([]uint64, nodes)
	n.buildResources()

	n.swRNG = make([]sim.RNG, switches)
	for sw := range n.swRNG {
		n.swRNG[sw].Seed(sim.SeedFor(seed, "fabric-switch", sw))
	}
	n.hostRNG = make([]sim.RNG, nodes)
	for i := range n.hostRNG {
		n.hostRNG[i].Seed(sim.SeedFor(seed, "fabric-host", i))
	}
	if cfg.Faults.Enabled() {
		n.faults = *cfg.Faults
		n.faultSh = make([]sim.RNG, nodes)
		for i := range n.faultSh {
			n.faultSh[i].Seed(sim.SeedFor(seed, "fabric-fault", i))
		}
		n.burstLeft = make([]int, nodes)
	}
	n.statsSh = make([]Stats, len(engs))
	n.routeBufs = make([]routeBufs, len(engs))
	n.pktFree = make([]packetList, len(engs))
	n.msh = make([]fabMetrics, len(engs))
	return n
}

// buildResources lays out every locus's resources (Network.res) in one
// flat array of values per shard, in locus order, so a shard's resources
// are its own allocation and building them costs one allocation per
// shard whatever the topology's size.
func (n *Network) buildResources() {
	slots := func(locus int) int {
		if locus < len(n.hosts) {
			return 1 // the injection link
		}
		return 1 + len(n.topo.Ports(locus-len(n.hosts))) // the crossbar, then the ports
	}
	owner := func(locus int) int {
		if locus < len(n.hosts) {
			return n.nodeShard[locus]
		}
		return n.swShard[locus-len(n.hosts)]
	}
	per := make([]int, len(n.engs))
	for l := 0; l < n.numLoci; l++ {
		per[owner(l)] += slots(l)
	}
	arrays := make([][]sim.Resource, len(n.engs))
	for s := range arrays {
		arrays[s] = make([]sim.Resource, per[s])
	}
	n.res = make([][]sim.Resource, n.numLoci)
	for l := range n.res {
		s, k := owner(l), slots(l)
		n.res[l], arrays[s] = arrays[s][:k:k], arrays[s][k:]
	}
}

// hostTx returns node's injection link.
func (n *Network) hostTx(node int) *sim.Resource { return &n.res[n.nodeLocus(node)][0] }

// outPorts returns switch sw's output ports, indexed like topo.Ports(sw).
func (n *Network) outPorts(sw int) []sim.Resource { return n.res[n.switchLocus(sw)][1:] }

// shardPlan assigns loci to shards: nodes in contiguous rank blocks
// (node*k/nodes, matching how motifs lay communication out), and each
// switch with attached hosts to the shard of its lowest-numbered host —
// keeping a node's first/last hop on its own shard so only inter-switch
// hops cross. Hostless (spine) switches spread evenly.
func shardPlan(topo topology.Topology, k int) (nodeShard, swShard []int) {
	nodes, switches := topo.NumNodes(), topo.NumSwitches()
	nodeShard = make([]int, nodes)
	for i := range nodeShard {
		nodeShard[i] = i * k / nodes
	}
	swShard = make([]int, switches)
	for sw := 0; sw < switches; sw++ {
		host := -1
		for _, p := range topo.Ports(sw) {
			if p.Kind == topology.HostPort && (host == -1 || p.Node < host) {
				host = p.Node
			}
		}
		if host >= 0 {
			swShard[sw] = nodeShard[host]
		} else {
			swShard[sw] = sw * k / switches
		}
	}
	return nodeShard, swShard
}

// NodeShard returns the shard owning node's locus. Higher layers use it to
// place per-node components (NIC, endpoints) on the engine that will
// execute their events.
func (n *Network) NodeShard(node int) int { return n.nodeShard[node] }

// nodeCtx returns the engine and shard executing node-side events.
func (n *Network) nodeCtx(node int) (*sim.Engine, int) {
	s := n.nodeShard[node]
	return n.engs[s], s
}

// swCtx returns the engine and shard executing switch sw's events.
func (n *Network) swCtx(sw int) (*sim.Engine, int) {
	s := n.swShard[sw]
	return n.engs[s], s
}

// nodeLocus and switchLocus map components onto the unique-priority index
// space: nodes first, then switches.
func (n *Network) nodeLocus(node int) int { return node }
func (n *Network) switchLocus(sw int) int { return len(n.hosts) + sw }

// sched books h at absolute time at on dstShard, on behalf of srcLocus
// (whose owner srcShard must be the currently executing shard). Every
// event gets a locus-unique negative priority, so it can never tie with
// another at the same timestamp, which is what makes the merged execution
// order independent of the shard count.
func (n *Network) sched(srcShard, srcLocus, dstShard int, at sim.Time, h sim.Handler) {
	pri := -(1 + int(n.priCount[srcLocus])*n.numLoci + srcLocus)
	n.priCount[srcLocus]++
	if srcShard == dstShard {
		n.tags[dstShard].AtPH(at, pri, h)
		return
	}
	n.group.Post(srcShard, dstShard, at, pri, n.tags[dstShard].Label(), h)
}

// TotalStats aggregates fabric counters across shards. With more than one
// shard call it only while the group is quiescent (before Run or after it
// returns).
func (n *Network) TotalStats() Stats {
	var t Stats
	for i := range n.statsSh {
		s := &n.statsSh[i]
		t.PacketsInjected += s.PacketsInjected
		t.PacketsDelivered += s.PacketsDelivered
		t.PacketsDropped += s.PacketsDropped
		t.BytesDelivered += s.BytesDelivered
		t.BytesDropped += s.BytesDropped
		t.TotalHops += s.TotalHops
		t.TotalLatency += s.TotalLatency
		t.ValiantDetours += s.ValiantDetours
	}
	return t
}

// SetMetricsSharded attaches per-shard registries for the per-event
// handles (latency/hops histograms and the timeline — each shard writes
// only its own, and the harness merges registries after the run), the
// drop and detour counters, which each shard's registry reads from that
// shard's Stats when a snapshot is taken, plus snapshot-time aggregate
// collectors on primary. A one-shard network may pass primary itself as
// its shard registry. The aggregate collectors read resource state
// directly, which is only safe while the shards are quiescent or there is
// only one.
func (n *Network) SetMetricsSharded(primary *metrics.Registry, shards []*metrics.Registry) {
	if len(shards) != len(n.engs) {
		panic(fmt.Sprintf("fabric: %d shard registries for %d shards", len(shards), len(n.engs)))
	}
	for i, reg := range shards {
		n.msh[i] = fabMetrics{
			latency:  reg.Histogram("fabric.packet_latency_ns"),
			hops:     reg.Histogram("fabric.packet_hops"),
			timeline: reg.Timeline(),
		}
		reg.CounterFrom("fabric.packets_dropped", &n.statsSh[i].PacketsDropped)
		reg.CounterFrom("fabric.valiant_detours", &n.statsSh[i].ValiantDetours)
	}
	e := n.engs[0] // clocks are synchronized whenever collectors run
	perSwitch := n.topo.NumSwitches() <= maxPerSwitchGauges
	primary.AddCollector(func() {
		var busy, uses float64
		var util, maxUtil float64
		links := 0
		for sw := range n.swShard {
			var backlog sim.Time
			ports := n.outPorts(sw)
			for i := range ports {
				p := &ports[i]
				backlog += p.Backlog(e)
				u := p.Utilization(e)
				util += u
				if u > maxUtil {
					maxUtil = u
				}
				busy += p.BusyTime().Nanoseconds()
				uses += float64(p.Uses())
				links++
			}
			if perSwitch {
				primary.Gauge(fmt.Sprintf("fabric.sw%d.queue_ns", sw)).Set(backlog.Nanoseconds())
			}
		}
		if links > 0 {
			primary.Gauge("fabric.link_util_mean").Set(util / float64(links))
			primary.Gauge("fabric.link_util_max").Set(maxUtil)
			primary.Gauge("fabric.link_busy_ns_total").Set(busy)
			primary.Gauge("fabric.link_uses_total").Set(uses)
		}
		var hostUtil float64
		for node := range n.hosts {
			hostUtil += n.hostTx(node).Utilization(e)
		}
		if len(n.hosts) > 0 {
			primary.Gauge("fabric.host_tx_util_mean").Set(hostUtil / float64(len(n.hosts)))
		}
	})
}

// RegisterTelemetrySharded registers the fabric's probes on a shard set.
// Cross-shard columns are declared with a merge kind (integer-sum in
// picoseconds for backlog, plain sum for counters, max for the worst
// queue) so the merged CSV is byte-identical at any shard count;
// per-switch columns live on the switch's owning shard only.
func (n *Network) RegisterTelemetrySharded(ss *telemetry.ShardSet) {
	if ss == nil {
		return
	}
	swByShard := make([][]int, len(n.engs))
	for sw, s := range n.swShard {
		swByShard[s] = append(swByShard[s], sw)
	}
	ss.Register("fabric.queue_ns_total", telemetry.KindSumPS, func(shard int) float64 {
		e := n.engs[shard]
		var backlog sim.Time
		for _, sw := range swByShard[shard] {
			ports := n.outPorts(sw)
			for i := range ports {
				backlog += ports[i].Backlog(e)
			}
		}
		return backlog.Picoseconds()
	})
	ss.Register("fabric.queue_ns_max", telemetry.KindMax, func(shard int) float64 {
		e := n.engs[shard]
		var worst sim.Time
		for _, sw := range swByShard[shard] {
			ports := n.outPorts(sw)
			for i := range ports {
				if b := ports[i].Backlog(e); b > worst {
					worst = b
				}
			}
		}
		return worst.Nanoseconds()
	})
	for i := range n.statsSh {
		ss.CounterFrom("fabric.packets_delivered", i, &n.statsSh[i].PacketsDelivered)
		ss.CounterFrom("fabric.valiant_detours", i, &n.statsSh[i].ValiantDetours)
	}
	if n.topo.NumSwitches() > maxPerSwitchGauges {
		return
	}
	for sw := range n.swShard {
		sw := sw
		ports := n.outPorts(sw)
		owner := n.swShard[sw]
		e := n.engs[owner]
		ss.RegisterLocal(fmt.Sprintf("fabric.queue_ns.sw%03d", sw), owner, func() float64 {
			var backlog sim.Time
			for i := range ports {
				backlog += ports[i].Backlog(e)
			}
			return backlog.Nanoseconds()
		})
		var prevBusy, prevAt sim.Time
		ss.RegisterLocal(fmt.Sprintf("%s%03d", TelemetryHeatmapPrefix, sw), owner, func() float64 {
			var busy sim.Time
			for i := range ports {
				busy += ports[i].BusyTime()
			}
			now := e.Now()
			dt, db := now-prevAt, busy-prevBusy
			prevBusy, prevAt = busy, now
			if dt <= 0 || len(ports) == 0 {
				return 0
			}
			return sim.Ratio(db, dt) / float64(len(ports))
		})
	}
}
