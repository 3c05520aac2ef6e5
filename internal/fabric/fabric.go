// Package fabric turns a topology into a timed packet network: links with
// bandwidth and latency, switches with finite crossbar bandwidth and
// per-output-port queues, and static, adaptive or Valiant routing.
//
// The model follows the paper's simulation setup (§V-B): switch crossbar
// bandwidth is scaled with link bandwidth ("crossbar bandwidth is always
// 50% greater than link bandwidth"), host injection always keeps the NIC
// fed at line rate, and queue depths are ample so full-queue stalls never
// constrain results. Adaptive routing chooses the least-backlogged
// candidate output port; on dragonfly it may additionally take a one-shot
// Valiant detour when minimal queues are congested (UGAL-style), after
// which the packet routes minimally. Because different packets of one
// message can take different paths, adaptive routing reorders packet
// arrivals — exactly the property that breaks last-byte polling for RDMA
// and that RVMA's offset placement plus threshold counting tolerates.
package fabric

import (
	"fmt"

	"rvma/internal/sim"
	"rvma/internal/topology"
	"rvma/internal/trace"
)

// RoutingMode selects how the fabric picks among candidate output ports.
type RoutingMode int

const (
	// RouteStatic always takes the deterministic first candidate. Packet
	// order between one source and destination is preserved end to end,
	// which is the property last-byte polling depends on.
	RouteStatic RoutingMode = iota
	// RouteAdaptive picks the least-backlogged candidate, with a one-shot
	// Valiant detour on topologies that support it. Delivery order is not
	// guaranteed.
	RouteAdaptive
	// RouteValiant always detours through a random intermediate group/path
	// when the topology supports it, then routes minimally.
	RouteValiant
)

// String returns the mode's report name.
func (m RoutingMode) String() string {
	switch m {
	case RouteStatic:
		return "static"
	case RouteAdaptive:
		return "adaptive"
	case RouteValiant:
		return "valiant"
	default:
		return fmt.Sprintf("routing(%d)", int(m))
	}
}

// Ordered reports whether the mode preserves per-flow packet order.
func (m RoutingMode) Ordered() bool { return m == RouteStatic }

// HeaderBytes is the per-packet wire header (route, transport and RVMA/RDMA
// command fields). 64 bytes is in line with Portals/IB header budgets and
// with the paper's observation that an RVMA LUT entry needs 24 bytes of
// addressing state carried per command.
const HeaderBytes = 64

// Config sets the fabric's timing parameters.
type Config struct {
	// LinkGbps is the link data rate in gigabits per second. The paper
	// sweeps 100, 200, 400 and 2000 Gbps.
	LinkGbps float64
	// LinkLatency is the propagation delay of one cable (time of flight +
	// SerDes). ~50 ns for short copper/optical at these scales.
	LinkLatency sim.Time
	// SwitchLatency is the pipeline latency of one switch traversal
	// (arbitration + lookup), paid per hop in addition to crossbar time.
	SwitchLatency sim.Time
	// XbarFactor scales crossbar bandwidth relative to link bandwidth; the
	// paper fixes this at 1.5.
	XbarFactor float64
	// MTU is the maximum packet payload size in bytes.
	MTU int
	// Routing selects static/adaptive/valiant port selection.
	Routing RoutingMode
	// AdaptiveJitter, when positive under non-static routing, scales link
	// latency by a random factor in [1-j, 1+j] to model path-length and
	// congestion variation between alternative routes. It makes packet
	// reordering observable even on lightly loaded networks.
	AdaptiveJitter float64
	// Faults is the failure injection: uniform loss, burst loss and
	// per-link degradation windows (see fault.go). Nil is a lossless
	// fabric. Real HPC fabrics are lossless in steady state, but the
	// paper's fault-tolerance argument (§IV-F) is about exactly the
	// moments they are not.
	Faults *FaultPlan
}

// DefaultConfig returns the baseline used across experiments: 100 Gbps
// links, 50 ns cables, 100 ns switch pipeline, 1.5x crossbar, 2 KiB MTU.
func DefaultConfig() Config {
	return Config{
		LinkGbps:      100,
		LinkLatency:   50 * sim.Nanosecond,
		SwitchLatency: 100 * sim.Nanosecond,
		XbarFactor:    1.5,
		MTU:           2048,
		Routing:       RouteStatic,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LinkGbps <= 0 {
		return fmt.Errorf("fabric: link bandwidth must be positive, got %v", c.LinkGbps)
	}
	if c.MTU <= 0 {
		return fmt.Errorf("fabric: MTU must be positive, got %d", c.MTU)
	}
	if c.XbarFactor <= 0 {
		return fmt.Errorf("fabric: crossbar factor must be positive, got %v", c.XbarFactor)
	}
	if c.LinkLatency < 0 || c.SwitchLatency < 0 {
		return fmt.Errorf("fabric: negative latency")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// Packet is one wire packet. Payload semantics belong to the NIC protocol
// layers; the fabric only reads Size (payload bytes, excluding header) and
// the addressing fields. The packets of one message share one Payload,
// which describes the whole message and which no one mutates once sent;
// Offset says where this packet's Size bytes sit within that message.
type Packet struct {
	ID      uint64
	Src     int
	Dst     int
	Size    int // payload bytes; HeaderBytes is added on the wire
	Payload any
	Offset  int32 // of this packet's payload within its message

	// Bookkeeping maintained by the fabric. Hops is an int32 beside
	// Offset, so the two share a word and a packet stays 120 bytes.
	Hops     int32
	Injected sim.Time
	// QueueWait accumulates the time this packet spent queued for
	// contended resources (host injection link, switch crossbars, output
	// ports) rather than being serialized or on a cable. The receiving
	// protocol layer reads it to attribute the wire stage's wait
	// component.
	QueueWait sim.Time

	// ser and xbarHold are the packet's serialization time on a link and
	// its hold time on a switch crossbar. Inject computes both once, and
	// every hop's atSwitch reuses them.
	ser, xbarHold sim.Time
	misrouted     bool

	// The packet is its own event handler (Fire). Packets are never
	// copied, and each one has at most one pending event between NIC send
	// and protocol handler, so the packet itself is what every stage
	// schedules: stage and at (a switch or a node) or then (a
	// continuation) record what its event does next, and net is the
	// network that runs it. Scheduling a packet stores a pointer, so
	// forwarding one allocates nothing per hop. When a stage leaves
	// nothing pending, the packet goes back to a shard's free list (next
	// links it), and a recycled packet allocates nothing at all (see
	// NewPacket).
	stage stage
	at    int32
	net   *Network
	then  func(*Packet)
	next  *Packet
}

// stage is what a packet's event does when it runs.
type stage uint8

const (
	stageIdle    stage = iota // no event pending
	stageInject               // Network.Inject
	stageSwitch               // Network.atSwitch at switch at
	stageDeliver              // Network.deliver to node at
	stageThen                 // the continuation then
	stageFree                 // on a free list; must not be scheduled
)

// WireSize returns payload plus header bytes.
func (p *Packet) WireSize() int { return p.Size + HeaderBytes }

// Fire runs the packet's pending stage: it is the packet's event, and
// the handler every stage schedules.
//
//rvmalint:hot
func (p *Packet) Fire() { p.net.step(p) }

// Network returns the network the packet's last stage ran on.
func (p *Packet) Network() *Network { return p.net }

// Host is a node's attachment to the fabric, its NIC. A cluster attaches
// one per node (Attach).
type Host interface {
	// Deliver receives a packet at the node at the current simulated
	// time. It must not retain pkt after it returns: unless it scheduled
	// the packet's next stage (Then), the fabric recycles the packet as
	// soon as the call returns. Copy out the fields it needs.
	Deliver(pkt *Packet)
}

// DeliverFunc adapts a function to Host, for tests and tools that attach
// a callback rather than a NIC.
type DeliverFunc func(pkt *Packet)

// Deliver calls f.
func (f DeliverFunc) Deliver(pkt *Packet) { f(pkt) }

// Stats aggregates fabric-level counters for experiment reports.
type Stats struct {
	PacketsInjected  uint64
	PacketsDelivered uint64
	PacketsDropped   uint64
	BytesDelivered   uint64
	BytesDropped     uint64
	TotalHops        uint64
	TotalLatency     sim.Time
	ValiantDetours   uint64
}

// Network is an instantiated fabric over a topology. It executes on one
// engine per shard: the shards of a sim.ShardGroup (NewSharded), or a lone
// engine (New), which is the one-shard case of the same construction.
type Network struct {
	topo  topology.Topology
	cfg   Config
	hosts []Host

	// res holds the serial resources of each locus (a node or a switch),
	// indexed by locus: a node's injection link, or a switch's crossbar
	// followed by its output ports' link transmitters. The resources are
	// values in one flat array per shard, which these slices cut up (see
	// buildResources), so a locus costs a few slots, not an object each.
	res [][]sim.Resource

	nonMin topology.NonMinimalRouter // nil if unsupported

	// detourBias is one MTU's serialization time: the margin by which an
	// adaptive detour must beat the minimal path (selectPort).
	detourBias sim.Time

	// Failure injection (see fault.go). burstLeft counts the remaining
	// forced drops of an in-progress burst, per destination.
	faults    FaultPlan
	burstLeft []int

	tracer *trace.Tracer

	// Partitioned execution (see shard.go). Per-locus state (a locus is
	// one node or one switch) is written only by the shard that owns the
	// locus, which is what makes the multi-shard hot path race-free
	// without locks.
	group     *sim.ShardGroup // nil when built by New on a lone engine
	engs      []*sim.Engine   // per-shard engines
	tags      []sim.Tagged    // per-shard "fabric" tag
	nodeShard []int           // owning shard per node
	swShard   []int           // owning shard per switch
	numLoci   int             // nodes + switches; priority stride
	priCount  []uint64        // events scheduled per locus (unique priorities)
	nextIDs   []uint64        // per-source packet IDs
	swRNG     []sim.RNG       // per-switch routing/jitter substreams
	hostRNG   []sim.RNG       // per-node injection-jitter substreams
	faultSh   []sim.RNG       // per-destination fault substreams; nil when the plan cannot drop
	statsSh   []Stats         // per-shard counters; TotalStats sums them
	routeBufs []routeBufs     // per-shard candidate buffers selectPort reuses
	pktFree   []packetList    // per-shard recycled packets (NewPacket)
	msh       []fabMetrics    // per-shard metric handles; nil handles until SetMetricsSharded
}

// SetTracer attaches a tracer; packet-level events go to trace.CatPacket.
// A nil tracer detaches. Trace buffers are single-writer, so tracing needs
// a one-shard network.
func (n *Network) SetTracer(t *trace.Tracer) {
	if t != nil && len(n.engs) > 1 {
		panic("fabric: packet tracing needs a one-shard network (trace buffers are single-writer)")
	}
	n.tracer = t
}

// maxPerSwitchGauges caps per-switch gauge fan-out: beyond this many
// switches the collector only keeps fabric-wide aggregates, so metrics on
// a large topology don't drown the snapshot in per-switch series.
const maxPerSwitchGauges = 64

// TelemetryHeatmapPrefix selects the per-switch utilization columns the
// congestion heatmap is built from (Sampler.WriteHeatmapCSV prefix).
const TelemetryHeatmapPrefix = "fabric.util.sw"

// New builds a network over topo that runs on the lone engine eng. It is
// the one-shard case of NewSharded: the per-locus RNG substreams are
// seeded from one draw of eng's stream, and every fabric event carries a
// locus-unique priority.
func New(eng *sim.Engine, topo topology.Topology, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return build(nil, []*sim.Engine{eng}, topo, cfg, eng.RNG().Uint64()), nil
}

// Engine returns the engine of shard 0 (the lone engine of a network
// built by New).
func (n *Network) Engine() *sim.Engine { return n.engs[0] }

// Topology returns the underlying topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// Config returns the fabric configuration.
func (n *Network) Config() Config { return n.cfg }

// MTU returns the maximum payload per packet.
func (n *Network) MTU() int { return n.cfg.MTU }

// Attach registers h as node's host, which the fabric delivers node's
// packets to. Each node must attach exactly once before receiving
// traffic.
func (n *Network) Attach(node int, h Host) {
	if n.hosts[node] != nil {
		panic(fmt.Sprintf("fabric: node %d attached twice", node))
	}
	n.hosts[node] = h
}

// AttachHost is Attach for a delivery callback.
func (n *Network) AttachHost(node int, fn DeliverFunc) { n.Attach(node, fn) }

// Host returns node's attached host, or nil.
func (n *Network) Host(node int) Host { return n.hosts[node] }

// NewPacket returns a packet from src to dst carrying size payload bytes
// and payload, drawn from the free list of src's shard. Call it on that
// shard (as the NIC does, from its own node's engine). The packet lives
// until the stage that consumes it leaves nothing pending: it is dropped
// at ingress, delivered to a host handler that does not schedule it again,
// or handed to the continuation of Then. After that it is reused.
//
//rvmalint:hot
func (n *Network) NewPacket(src, dst, size int, payload any) *Packet {
	fl := &n.pktFree[n.nodeShard[src]]
	pkt := fl.head
	if pkt == nil {
		// A miss: the free list grows to the run's peak of packets in
		// flight, then serves every send.
		pkt = fl.slab.New()
	} else {
		fl.head, pkt.next = pkt.next, nil
		fl.len--
		pkt.stage = stageIdle
	}
	pkt.Src, pkt.Dst, pkt.Size, pkt.Payload = src, dst, size, payload
	return pkt
}

// recycle puts pkt, whose last stage left nothing pending, on the free
// list of the shard executing that stage: its destination's, since every
// stage that can end a packet runs at the destination node. The packet is
// zeroed, so a reused packet carries nothing over; being its own event,
// it keeps no binding. Packets allocated on one shard may be freed on
// another; each list still has a single writer, its own shard, and a
// list holding maxFreePackets drops further packets to the collector, so
// traffic that flows one way across shards cannot grow a list without
// bound.
func (n *Network) recycle(pkt *Packet) {
	fl := &n.pktFree[n.nodeShard[pkt.Dst]]
	if fl.len >= maxFreePackets {
		*pkt = Packet{stage: stageFree}
		return
	}
	*pkt = Packet{stage: stageFree, next: fl.head}
	fl.head = pkt
	fl.len++
}

// FreePackets returns the number of packets on the free lists. Call it
// only while the shards are quiescent.
func (n *Network) FreePackets() int {
	total := 0
	for i := range n.pktFree {
		total += n.pktFree[i].len
	}
	return total
}

// DropFreePackets empties the free lists and drops the chunks new packets
// are carved from, leaving their packets to the collector. Call it when a
// run has drained, so the heap a finished run keeps live does not hold its
// peak of packets in flight. Later sends allocate afresh.
func (n *Network) DropFreePackets() {
	clear(n.pktFree)
}

// InjectEvent returns pkt as an event set to Inject pkt when it fires.
// Schedule it on the source node's shard.
func (n *Network) InjectEvent(pkt *Packet) sim.Handler {
	return n.event(pkt, stageInject, 0, nil)
}

// Then returns pkt as an event set to run next(pkt) when it fires. The
// NIC uses it to hand a received packet to its protocol handler after
// the receive pipeline. Pass one function for every packet, not a
// closure per packet, so that scheduling allocates nothing: next finds
// what it needs through the packet (Network, Host).
func (n *Network) Then(pkt *Packet, next func(*Packet)) sim.Handler {
	return n.event(pkt, stageThen, 0, next)
}

// event records pkt's next stage and returns the packet, its own event.
func (n *Network) event(pkt *Packet, s stage, at int, then func(*Packet)) *Packet {
	if sim.DebugEnabled {
		n.debugCheckSchedule(pkt)
	}
	pkt.stage, pkt.at, pkt.net, pkt.then = s, int32(at), n, then
	return pkt
}

// step runs pkt's pending stage, then recycles the packet if that stage
// scheduled nothing further.
//
//rvmalint:hot
func (n *Network) step(pkt *Packet) {
	s := pkt.stage
	if sim.DebugEnabled {
		sim.Assertf(s != stageFree, "fabric: a freed packet's event fired")
	}
	pkt.stage = stageIdle
	switch s {
	case stageInject:
		n.Inject(pkt)
	case stageSwitch:
		n.atSwitch(int(pkt.at), pkt)
	case stageDeliver:
		n.deliver(int(pkt.at), pkt)
	case stageThen:
		pkt.then(pkt)
	default:
		panic(fmt.Sprintf("fabric: packet #%d fired with no pending stage", pkt.ID))
	}
	if pkt.stage == stageIdle {
		n.recycle(pkt)
	}
}

// Inject hands a packet to node src's injection link at the current time.
// The packet serializes onto the host link (which always runs at line rate,
// per the paper's host-bus assumption), then traverses the fabric. The
// caller must be executing on the source node's shard (NICs are
// constructed on their node's shard engine, so this holds by
// construction). The fabric owns pkt from here on and recycles it once
// it is consumed (see NewPacket), so the caller must not touch it after
// the call.
//
//rvmalint:hot
func (n *Network) Inject(pkt *Packet) {
	if pkt.Src < 0 || pkt.Src >= len(n.hosts) || pkt.Dst < 0 || pkt.Dst >= len(n.hosts) {
		panic(fmt.Sprintf("fabric: inject with bad endpoints src=%d dst=%d", pkt.Src, pkt.Dst))
	}
	e, shard := n.nodeCtx(pkt.Src)
	// Per-source IDs and a per-node jitter substream keep both a pure
	// function of the node's own history, independent of partitioning.
	pkt.ID = n.nextIDs[pkt.Src]
	n.nextIDs[pkt.Src]++
	now := e.Now()
	pkt.Injected = now
	n.statsSh[shard].PacketsInjected++
	if n.tracer != nil {
		//rvmalint:allow hotalloc -- tracer-only branch; a traced run is a debugging run
		n.tracer.Eventf(trace.CatPacket, "inject #%d %d->%d %dB", pkt.ID, pkt.Src, pkt.Dst, pkt.Size)
	}

	ser := sim.SerializationTime(pkt.WireSize(), n.cfg.LinkGbps)
	pkt.ser = ser
	pkt.xbarHold = sim.SerializationTime(pkt.WireSize(), n.cfg.LinkGbps*n.cfg.XbarFactor)
	txDone := n.hostTx(pkt.Src).AcquireAt(now, ser)
	pkt.QueueWait += txDone - now - ser
	arrive := txDone + n.linkDelayFrom(&n.hostRNG[pkt.Src])
	sw, _ := n.topo.HostPort(pkt.Src)
	n.sched(shard, n.nodeLocus(pkt.Src), n.swShard[sw], arrive, n.event(pkt, stageSwitch, sw, nil))
}

// MaxQueueBacklog returns the largest backlog any switch output port
// holds at shard 0's current time — the attribution layer samples it as
// the "switch congestion right now" context for tail operations.
func (n *Network) MaxQueueBacklog() sim.Time {
	var max sim.Time
	for sw := range n.swShard {
		ports := n.outPorts(sw)
		for i := range ports {
			if b := ports[i].Backlog(n.engs[0]); b > max {
				max = b
			}
		}
	}
	return max
}

// linkDelayFrom returns the (possibly jittered) cable latency for one hop,
// drawing from rng, the sending locus's substream.
func (n *Network) linkDelayFrom(rng *sim.RNG) sim.Time {
	d := n.cfg.LinkLatency
	if n.cfg.AdaptiveJitter > 0 && n.cfg.Routing != RouteStatic {
		d = rng.Jitter(d, n.cfg.AdaptiveJitter)
	}
	return d
}

// atSwitch processes a packet's arrival at switch sw at the current time:
// route selection, crossbar transit, output serialization, link traversal.
// It executes on the switch's owning shard.
//
//rvmalint:hot
func (n *Network) atSwitch(sw int, pkt *Packet) {
	e, shard := n.swCtx(sw)
	pkt.Hops++
	if sim.DebugEnabled {
		n.debugCheckHop(e, sw, pkt)
	}
	rng := &n.swRNG[sw]
	res := n.res[n.switchLocus(sw)]
	outPort := n.selectPort(e, shard, rng, sw, res[1:], pkt)
	port := n.topo.Ports(sw)[outPort]

	now := e.Now()
	xbarHold, ser := pkt.xbarHold, pkt.ser
	xbarDone := res[0].AcquireAt(now, xbarHold)
	txDone := res[1+outPort].AcquireAt(xbarDone+n.cfg.SwitchLatency, ser)
	pkt.QueueWait += (xbarDone - now - xbarHold) + (txDone - xbarDone - n.cfg.SwitchLatency - ser)
	arrive := txDone + n.linkDelayFrom(rng)

	switch port.Kind {
	case topology.HostPort:
		n.sched(shard, n.switchLocus(sw), n.nodeShard[port.Node], arrive, n.event(pkt, stageDeliver, port.Node, nil))
	case topology.SwitchPort:
		n.sched(shard, n.switchLocus(sw), n.swShard[port.PeerSwitch], arrive, n.event(pkt, stageSwitch, port.PeerSwitch, nil))
	default:
		panic(fmt.Sprintf("fabric: routed to unused port %d of switch %d", outPort, sw))
	}
}

// selectPort applies the routing mode to the candidate set. e is the
// engine executing switch sw, ports its output ports and rng the stream
// routing draws come from. The candidate sets go into the shard's reused
// route buffers.
func (n *Network) selectPort(e *sim.Engine, shard int, rng *sim.RNG, sw int, ports []sim.Resource, pkt *Packet) int {
	rb := &n.routeBufs[shard]
	rb.min = n.topo.Candidates(sw, pkt.Dst, rb.min[:0])
	cands := rb.min
	if len(cands) == 0 {
		panic(fmt.Sprintf("fabric: no route from switch %d to node %d", sw, pkt.Dst))
	}
	switch n.cfg.Routing {
	case RouteStatic:
		return cands[0]
	case RouteValiant:
		if !pkt.misrouted && n.nonMin != nil {
			rb.nonMin = n.nonMin.NonMinimalCandidates(sw, pkt.Dst, rb.nonMin[:0])
			if nm := rb.nonMin; len(nm) > 0 {
				pkt.misrouted = true
				n.statsSh[shard].ValiantDetours++
				return nm[rng.Intn(len(nm))]
			}
		}
		pkt.misrouted = true // minimal from here on
		return leastBacklogged(e, ports, cands)
	case RouteAdaptive:
		best := leastBacklogged(e, ports, cands)
		if !pkt.misrouted && n.nonMin != nil {
			// A detour must beat the minimal path by one MTU's
			// serialization time.
			bias := n.detourBias
			minBacklog := ports[best].Backlog(e)
			if minBacklog > bias {
				rb.nonMin = n.nonMin.NonMinimalCandidates(sw, pkt.Dst, rb.nonMin[:0])
				if nm := rb.nonMin; len(nm) > 0 {
					alt := leastBacklogged(e, ports, nm)
					// UGAL: detour when twice the non-minimal backlog still
					// beats the minimal backlog.
					if 2*ports[alt].Backlog(e)+bias < minBacklog {
						pkt.misrouted = true
						n.statsSh[shard].ValiantDetours++
						n.msh[shard].timeline.Instant(pkt.Src, "fabric", "detour", e.Now())
						if n.tracer != nil {
							//rvmalint:allow hotalloc -- tracer-only branch; a traced run is a debugging run
							n.tracer.Eventf(trace.CatPacket, "detour #%d at sw%d", pkt.ID, sw)
						}
						return alt
					}
				}
			}
		}
		return best
	default:
		panic("fabric: unknown routing mode")
	}
}

// leastBacklogged returns the candidate among a switch's output ports
// whose queue frees soonest, breaking ties in favor of the earliest
// candidate (keeping selection deterministic for a given simulation
// state).
func leastBacklogged(e *sim.Engine, ports []sim.Resource, cands []int) int {
	best := cands[0]
	bestBacklog := ports[best].Backlog(e)
	for _, c := range cands[1:] {
		if b := ports[c].Backlog(e); b < bestBacklog {
			best, bestBacklog = c, b
		}
	}
	return best
}

// deliver hands the packet to the destination host at the current time,
// unless failure injection claims it. Drops fire here — at destination
// ingress, after the packet consumed its full path budget of injection
// serialization, crossbar time, output queues and link hops — modeling a
// receiver-side CRC discard. A dropped packet therefore still congests
// the fabric and still influences adaptive-routing backlogs exactly as a
// delivered one; what changed from earlier builds is that the drop draw
// comes from the destination's fault substream, so loss sweeps never
// shift the routing substreams and skew detour decisions for surviving
// packets.
//
//rvmalint:hot
func (n *Network) deliver(node int, pkt *Packet) {
	e, shard := n.nodeCtx(node)
	h := n.hosts[node]
	if h == nil {
		panic(fmt.Sprintf("fabric: packet for unattached node %d", node))
	}
	st := &n.statsSh[shard]
	mm := &n.msh[shard]
	if n.faultSh != nil && n.dropPacket(node, e, &n.faultSh[node]) {
		st.PacketsDropped++
		st.BytesDropped += uint64(pkt.Size)
		mm.timeline.Instant(node, "fabric", "drop", e.Now())
		if n.tracer != nil {
			//rvmalint:allow hotalloc -- tracer-only branch; a traced run is a debugging run
			n.tracer.Eventf(trace.CatPacket, "DROP #%d for node %d", pkt.ID, node)
		}
		return
	}
	st.PacketsDelivered++
	st.BytesDelivered += uint64(pkt.Size)
	if sim.DebugEnabled {
		n.debugCheckDeliver(e, node, pkt)
	}
	st.TotalHops += uint64(pkt.Hops)
	st.TotalLatency += e.Now() - pkt.Injected
	mm.latency.ObserveTime(e.Now() - pkt.Injected)
	mm.hops.Observe(float64(pkt.Hops))
	if n.tracer != nil {
		//rvmalint:allow hotalloc -- tracer-only branch; a traced run is a debugging run
		n.tracer.Eventf(trace.CatPacket, "deliver #%d at node %d after %d hops", pkt.ID, node, pkt.Hops)
	}
	h.Deliver(pkt)
}

// MeanPacketLatency returns the average injection-to-delivery latency.
func (n *Network) MeanPacketLatency() sim.Time {
	s := n.TotalStats()
	if s.PacketsDelivered == 0 {
		return 0
	}
	return s.TotalLatency / sim.Time(s.PacketsDelivered)
}

// MeanHops returns the average switch hops per delivered packet.
func (n *Network) MeanHops() float64 {
	s := n.TotalStats()
	if s.PacketsDelivered == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.PacketsDelivered)
}
