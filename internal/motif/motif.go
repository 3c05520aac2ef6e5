// Package motif implements the paper's large-scale workloads (§V-B1):
// behavioral representations of HPC communication patterns, run over
// either the RVMA or the RDMA model on the simulated fabric.
//
//   - Sweep3D: a 2-D process decomposition of a 3-D domain performing
//     wavefront sweeps from all 8 corners, latency-sensitive (Figure 7);
//   - Halo3D: a 3-D decomposition exchanging the 6 faces of each block
//     every iteration, bandwidth-sensitive (Figure 8);
//   - Incast: the many-to-one client/server pattern that motivates RVMA's
//     receiver-managed resources in the introduction.
//
// Each rank is a step record over a Transport: a phase counter and a step
// method that runs the rank up to its next wait, resumed by a
// continuation when that wait completes. The RVMA
// transport keeps a bucket of buffers posted per in-neighbor and needs no
// per-message coordination; the RDMA transports negotiate buffers up
// front (Figure 1) and must both notify completion (per the routing
// mode's scheme) and return a credit before a buffer can be reused — the
// "tight coordination" the paper's Sweep3D analysis blames for RDMA's
// slowdown.
package motif

import (
	"fmt"

	"rvma/internal/attrib"
	"rvma/internal/fabric"
	"rvma/internal/metrics"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/rdma"
	"rvma/internal/recovery"
	"rvma/internal/rvma"
	"rvma/internal/sim"
	"rvma/internal/topology"
	"rvma/internal/trace"
)

// TransportKind selects the communication model a motif runs on. The
// routing mode is a separate axis (ClusterConfig.Routing): RVMA's
// threshold completion works identically under any routing, while RDMA's
// completion scheme is forced by it — last-byte polling is only sound on
// byte-ordered (static) networks, so under adaptive or Valiant routing
// the RDMA transport must fall back to trailing send/recv completion.
type TransportKind int

const (
	// KindRVMA uses mailboxes with EPOCH_OPS threshold-1 windows and a
	// posted-buffer depth maintained by the transport.
	KindRVMA TransportKind = iota
	// KindRDMA uses negotiated buffers with per-reuse credits; the
	// completion scheme follows the routing mode.
	KindRDMA
)

// String returns the kind's report name.
func (k TransportKind) String() string {
	switch k {
	case KindRVMA:
		return "RVMA"
	case KindRDMA:
		return "RDMA"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Transport is the rank-level communication interface motifs drive.
// Message streams between a pair of ranks are FIFO; the motifs' data
// dependencies provide all higher-level ordering.
//
// A caller is a rank: a step record whose step method advances it to its
// next wait (a state machine over this interface, as SST's motifs are).
// The three methods that can wait take a continuation k, the rank's
// bound step. Each returns true when what it waits for has happened
// already, and then never calls k. It returns false otherwise, and then
// calls k exactly once, later, from inside the event that completes the
// wait, so the rank continues at that simulated instant without an event
// of its own. The transport lets go of k before calling it, so a
// finished run leaves no rank reachable from the cluster.
type Transport interface {
	// Rank is this endpoint's rank (== node id).
	Rank() int
	// Ranks is the total number of ranks in the job.
	Ranks() int
	// Prepare establishes receive-side resources for messages arriving
	// from each of inPeers, up to maxMsg bytes each, and send-side
	// resources toward each of outPeers. RVMA's setup is immediate, so
	// its Prepare always returns true; RDMA's completes after its
	// handshakes. A rank may call it again, also while an earlier call is
	// pending: each call sets up only the peers no earlier call named,
	// and completes once those are set up, whatever the other calls'
	// state. A message sent to a peer whose setup is still pending waits
	// for it; one sent to a peer no call named, or received from one,
	// panics. Prepare keeps neither slice.
	Prepare(inPeers, outPeers []int, maxMsg int, k func()) bool
	// Send transfers size bytes to dst. Delivery is observed by the
	// peer's Recv, local completion (the send buffer is reusable) by
	// WaitSent. Send hands out no handle, so the transport and its
	// endpoint reuse what a message used once it is spent.
	Send(dst, size int)
	// WaitSent completes once every message this transport has sent to
	// dst has completed locally; k runs inside the completion of the last
	// of them. The RVMA transport, whose puts complete locally in issue
	// order, waits for every message sent so far, to any peer.
	WaitSent(dst int, k func()) bool
	// Recv completes once the next not-yet-consumed message from src has
	// fully arrived and its completion has been observed by host
	// software. size is the expected message size (motifs always know
	// it), which byte-counted completion schemes need. The transport
	// reuses the receive handle before k runs: the continuation, not a
	// handle, is all the caller holds.
	Recv(src, size int, k func()) bool
}

// Cluster is a set of rank transports over one simulated network.
type Cluster struct {
	Eng        *sim.Engine // shard 0's engine
	Net        *fabric.Network
	Transports []Transport
	Kind       TransportKind
	// lastByte records that RDMA completes puts by last-byte polling:
	// ClusterConfig.RDMALastBytePoll on a byte-ordered routing.
	lastByte bool

	// Group is the shard group the cluster executes on (one shard unless
	// ClusterConfig.Shards asks for more): every rank's components live on
	// the shard owning its node, and Tags holds one "motif" handle per
	// shard. Motifs schedule their ranks' steps through TagFor and run
	// through Run.
	Group *sim.ShardGroup
	Tags  []sim.Tagged

	// Component references retained for observability attachment.
	nics    []*nic.NIC
	rvmaEPs []*rvma.Endpoint
	rdmaEPs []*rdma.Endpoint
	recMgrs []*recovery.Manager

	// shadowRegs are the per-shard metric registries of a sharded run
	// (AttachShardMetrics); FinishMetrics folds them into the primary.
	shadowRegs []*metrics.Registry
}

// SetTracer attaches one tracer to every layer of the cluster: the fabric
// (trace.CatPacket), each NIC (trace.CatNIC) and each protocol endpoint
// (trace.CatRVMA / trace.CatRDMA). A nil tracer detaches all of them.
func (c *Cluster) SetTracer(t *trace.Tracer) {
	c.Net.SetTracer(t)
	for _, n := range c.nics {
		n.SetTracer(t)
	}
	for _, ep := range c.rvmaEPs {
		ep.SetTracer(t)
	}
	for _, ep := range c.rdmaEPs {
		ep.SetTracer(t)
	}
}

// AttachAttribution wires the latency-attribution collector into the
// cluster: it becomes the registry's span observer (spans must be enabled
// for it to see anything) and gains causal-context probes over the
// cluster's recovery, NACK/rewind and fabric-congestion state, which it
// samples whenever an operation enters the worst-K tail exchange. Call
// after AttachShardMetrics and before the run, on a one-shard cluster
// (spans and their observers are single-writer).
func (c *Cluster) AttachAttribution(reg *metrics.Registry, col *attrib.Collector) {
	if reg == nil || col == nil {
		return
	}
	reg.SetSpanObserver(col)
	col.AddContext("nacks_total", func() float64 { return float64(c.NACKTotal()) })
	col.AddContext("rewinds_total", func() float64 { return float64(c.RewindTotal()) })
	col.AddContext("retransmits_total", func() float64 { return float64(c.RecoveryStats().Retransmits) })
	col.AddContext("timeouts_total", func() float64 { return float64(c.RecoveryStats().Timeouts) })
	col.AddContext("fabric_max_queue_ns", func() float64 { return c.Net.MaxQueueBacklog().Nanoseconds() })
	col.AddContext("fabric_packets_dropped", func() float64 { return float64(c.Net.TotalStats().PacketsDropped) })
}

// maxPerNodeProbes caps per-node telemetry columns: beyond this many nodes
// only cluster-wide aggregates are registered, mirroring the per-switch
// gauge cap, so time-series width stays bounded on large runs.
const maxPerNodeProbes = 16

// NACKTotal returns the cumulative NACK count across every RVMA endpoint
// (zero on RDMA clusters). The flight recorder's NACK-burst watcher polls
// it between samples.
func (c *Cluster) NACKTotal() uint64 {
	var total uint64
	for _, ep := range c.rvmaEPs {
		total += ep.Stats.Nacks
	}
	return total
}

// ClusterConfig parameterizes cluster construction.
type ClusterConfig struct {
	Topology topology.Topology
	Fabric   fabric.Config // Fabric.Routing is overridden by Routing below
	Routing  fabric.RoutingMode
	NIC      nic.Profile
	PCIe     pcie.Config
	Kind     TransportKind
	Seed     uint64
	// Shards partitions the cluster across that many event heaps
	// (sim.ShardGroup) with the fabric's minimum link delay as lookahead;
	// values below 1 mean 1. Outputs are byte-identical at any shard
	// count; spans, tracing and the Perfetto timeline need one shard.
	Shards int
	// RDMABuffers is the number of buffers negotiated per (sender,
	// receiver) pair for the RDMA transports; 1 is the paper's static
	// single-buffer model, larger values ablate credit pipelining.
	RDMABuffers int
	// RDMALastBytePoll lets the RDMA transport use last-byte polling when
	// the routing mode preserves byte order. It is the specification-
	// violating idiom the paper's §V-A measures on real hardware; the
	// large-scale simulations (and this package's default) model
	// specification-compliant RDMA, which pays the trailing send/recv
	// completion under every routing mode.
	RDMALastBytePoll bool
	// PipelinedFence and Notification are a host profile's endpoint
	// choices: rdma.Config.PipelinedFence and rvma.Config.Notification.
	PipelinedFence bool
	Notification   rvma.NotifyMode
	// RVMADepth is the posted-buffer depth the RVMA transport maintains
	// per in-neighbor mailbox.
	RVMADepth int
	// Faults injects packet loss at receiver ingress (fabric.FaultPlan);
	// nil keeps the default lossless fabric.
	Faults *fabric.FaultPlan
	// Recovery, when non-nil, enables the sender-side reliability layer
	// on both transports: acked operations with timeout/retransmit under
	// this policy, plus receiver-side window guards on RVMA. Nil keeps
	// the original fire-and-forget model (which deadlocks under loss).
	Recovery *recovery.Config
}

// DefaultClusterConfig returns the motif defaults: paper fabric settings,
// default NIC profile, PCIe Gen 4/5 (150 ns), single-buffer RDMA, depth-4
// RVMA mailboxes.
func DefaultClusterConfig(topo topology.Topology, kind TransportKind) ClusterConfig {
	return ClusterConfig{
		Topology:    topo,
		Fabric:      fabric.DefaultConfig(),
		Routing:     fabric.RouteAdaptive,
		NIC:         nic.DefaultProfile(),
		PCIe:        pcie.Gen4x16(),
		Kind:        kind,
		Seed:        1,
		RDMABuffers: 1,
		RVMADepth:   4,
	}
}

// ApplyLinkSpeed configures the cluster for a link data rate, scaling the
// parts of the substrate the paper holds non-constraining: "For each of
// the bandwidths ... the corresponding switch crossbar bandwidths have
// been scaled as well. Crossbar bandwidth is always 50% greater than link
// bandwidth. Host bus bandwidth is always sufficient to keep the NIC/link
// supplied with data at line rate" (§V-B1). Concretely: the crossbar
// follows automatically (XbarFactor), the NIC packet pipelines speed up
// proportionally so packet processing sustains line rate, and the PCIe
// data path is kept at >= 1.5x line rate.
func (cfg *ClusterConfig) ApplyLinkSpeed(gbps float64) {
	if gbps <= 0 {
		panic("motif: non-positive link speed")
	}
	base := cfg.Fabric.LinkGbps
	if base <= 0 {
		base = 100
	}
	cfg.Fabric.LinkGbps = gbps
	if gbps > base {
		scale := base / gbps
		mul := func(t sim.Time) sim.Time {
			out := sim.ScaleF(t, scale)
			if out < sim.Nanosecond {
				out = sim.Nanosecond
			}
			return out
		}
		cfg.NIC.SendPacketProc = mul(cfg.NIC.SendPacketProc)
		cfg.NIC.RecvPacketProc = mul(cfg.NIC.RecvPacketProc)
		cfg.NIC.LookupLatency = mul(cfg.NIC.LookupLatency)
	}
	if minGBps := gbps / 8 * 1.5; cfg.PCIe.GBps < minGBps {
		cfg.PCIe.GBps = minGBps
	}
}

// NewCluster builds the shard group, fabric and one transport per node.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.RDMABuffers < 1 {
		cfg.RDMABuffers = 1
	}
	if cfg.RVMADepth < 1 {
		cfg.RVMADepth = 1
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	fcfg := cfg.Fabric
	fcfg.Routing = cfg.Routing
	if cfg.Faults != nil {
		fcfg.Faults = cfg.Faults
	}
	la, err := fabric.LookaheadFor(fcfg)
	if err != nil {
		return nil, err
	}
	g := sim.NewShardGroup(cfg.Seed, cfg.Shards, la)
	net, err := fabric.NewSharded(g, cfg.Topology, fcfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Kind != KindRVMA && cfg.Kind != KindRDMA {
		return nil, fmt.Errorf("motif: unknown transport kind %v", cfg.Kind)
	}
	n := cfg.Topology.NumNodes()
	c := &Cluster{Eng: g.Shard(0), Net: net, Group: g, Kind: cfg.Kind, Transports: make([]Transport, n),
		lastByte: cfg.RDMALastBytePoll && cfg.Routing.Ordered()}
	c.Tags = make([]sim.Tagged, g.Shards())
	for i := range c.Tags {
		c.Tags[i] = g.Shard(i).Tag("motif")
	}
	c.nics = perShard[nic.NIC](net, g.Shards(), n)
	var recShards []recovery.Shard
	if cfg.Recovery != nil {
		c.recMgrs = perShard[recovery.Manager](net, g.Shards(), n)
		recShards = make([]recovery.Shard, g.Shards())
	}
	var rvmaTPs []*rvmaTransport
	var rdmaTPs []*rdmaTransport
	if cfg.Kind == KindRVMA {
		c.rvmaEPs, rvmaTPs = perShard[rvma.Endpoint](net, g.Shards(), n), perShard[rvmaTransport](net, g.Shards(), n)
	} else {
		c.rdmaEPs, rdmaTPs = perShard[rdma.Endpoint](net, g.Shards(), n), perShard[rdmaTransport](net, g.Shards(), n)
	}
	for node := 0; node < n; node++ {
		// Every per-node component lives on the engine that owns the node's
		// shard, so its events execute inside that shard's windows.
		neng := g.Shard(net.NodeShard(node))
		c.nics[node].Init(neng, net, node, cfg.PCIe, cfg.NIC)
		// One recovery manager per node: retry state is per-endpoint, stats
		// aggregate via RecoveryStats. Backoff jitter must depend only on
		// this node's retries, not on whatever else shares its engine.
		// The managers on a shard share its deadline and retry stages.
		if cfg.Recovery != nil {
			c.recMgrs[node].Init(&recShards[net.NodeShard(node)], neng, *cfg.Recovery, sim.SeedFor(cfg.Seed, "recovery", node))
		}
	}
	// The endpoints and transports on a shard share its stages and slabs.
	switch cfg.Kind {
	case KindRVMA:
		rcfg := rvma.DefaultConfig()
		rcfg.CarryData = false
		rcfg.Notification = cfg.Notification
		rcfg.HistoryDepth = 0 // motifs don't rewind; avoid retaining buffers
		if cfg.Recovery != nil {
			// The window guard's reclaim retrieves the holed buffer
			// through Rewind, which needs retained history (§IV-F).
			rcfg.HistoryDepth = 2
		}
		rvma.InitEndpoints(c.rvmaEPs, c.nics, rcfg)
		shards := make([]rvmaShard, g.Shards())
		for node, ep := range c.rvmaEPs {
			rec := c.recoveryFor(node)
			if rec != nil {
				ep.SetReassemblyHorizon(rec.ReclaimAfter())
			}
			rvmaTPs[node].init(ep, &shards[net.NodeShard(node)], cfg.RVMADepth, rec, sim.SeedFor(cfg.Seed, "rank", node))
			c.Transports[node] = rvmaTPs[node]
		}
	case KindRDMA:
		dcfg := rdma.DefaultConfig()
		dcfg.CarryData = false
		dcfg.PipelinedFence = cfg.PipelinedFence
		rdma.InitEndpoints(c.rdmaEPs, c.nics, dcfg)
		shards := make([]rdmaShard, g.Shards())
		for node, ep := range c.rdmaEPs {
			rec := c.recoveryFor(node)
			if rec != nil {
				ep.SetReassemblyHorizon(rec.ReclaimAfter())
			}
			rdmaTPs[node].init(ep, &shards[net.NodeShard(node)], n, c.lastByte, cfg.RDMABuffers, rec)
			c.Transports[node] = rdmaTPs[node]
		}
	}
	return c, nil
}

// recoveryFor returns node's recovery manager, nil without recovery.
func (c *Cluster) recoveryFor(node int) *recovery.Manager {
	if c.recMgrs == nil {
		return nil
	}
	return c.recMgrs[node]
}

// perShard returns one zero T per node, placed in one array per shard
// that holds the shard's nodes' Ts by value. Building a node's component
// then takes a slot instead of an allocation, and no shard's components
// share an allocation with another shard's. The arrays never grow, so
// the pointers stay valid for the cluster's life.
func perShard[T any](net *fabric.Network, shards, nodes int) []*T {
	count := make([]int, shards)
	for node := 0; node < nodes; node++ {
		count[net.NodeShard(node)]++
	}
	arrays := make([][]T, shards)
	for s, k := range count {
		arrays[s] = make([]T, k)
	}
	out := make([]*T, nodes)
	for node := range out {
		s := net.NodeShard(node)
		out[node], arrays[s] = &arrays[s][0], arrays[s][1:]
	}
	return out
}

// HostMemory sums the nodes' simulated host memory: live is the bytes of
// allocated regions (posted RVMA buffers, registered RDMA regions,
// completion cells), resident the bytes the simulator holds for their
// contents, which stays zero while no payload bytes are carried.
func (c *Cluster) HostMemory() (live, resident int) {
	for _, n := range c.nics {
		live += n.Memory().LiveBytes()
		resident += n.Memory().ResidentBytes()
	}
	return live, resident
}

// RecoveryStats sums the per-node recovery managers' counters; the zero
// value when recovery is disabled.
func (c *Cluster) RecoveryStats() recovery.Stats {
	var s recovery.Stats
	for _, m := range c.recMgrs {
		s.OpsStarted += m.Stats.OpsStarted
		s.OpsCompleted += m.Stats.OpsCompleted
		s.Retransmits += m.Stats.Retransmits
		s.Timeouts += m.Stats.Timeouts
		s.NackRetries += m.Stats.NackRetries
		s.Exhausted += m.Stats.Exhausted
		s.Recovered += m.Stats.Recovered
		s.Reclaims += m.Stats.Reclaims
	}
	return s
}

// RewindTotal returns the cumulative Rewind count across every RVMA
// endpoint (zero on RDMA clusters): buffers retrieved by the recovery
// guard's reclaim path.
func (c *Cluster) RewindTotal() uint64 {
	var total uint64
	for _, ep := range c.rvmaEPs {
		total += ep.Stats.Rewinds
	}
	return total
}
