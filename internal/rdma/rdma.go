// Package rdma models traditional RDMA as the paper's baseline: physical-
// address windows owned by the initiator, a mandatory buffer-negotiation
// handshake before any transfer (Figure 1), and target-side completion
// that requires either byte-level network ordering (last-byte polling,
// valid only on statically routed networks) or an extra ordered send/recv
// after the data ("the InfiniBand specification states that no RDMA
// operation can be considered complete until a later send/recv operation
// has finished", §IV-D).
//
// The model runs on the same NIC/fabric/bus substrate as package rvma —
// the paper's methodology requires both models to share "identical timing
// for non-RDMA related traffic considerations" (§V-B) — so every
// performance difference between the two packages is structural: the
// handshake, the trailing completion message, and the receiver's inability
// to manage its own buffers.
package rdma

import (
	"fmt"

	"rvma/internal/memory"
	"rvma/internal/metrics"
	"rvma/internal/nic"
	"rvma/internal/sim"
	"rvma/internal/trace"
)

// CompletionScheme selects how the *target* learns a put finished.
type CompletionScheme int

const (
	// CompleteNone delivers data with no target-side notification — the
	// raw RDMA semantic.
	CompleteNone CompletionScheme = iota
	// CompleteLastByte has target software poll the final byte of the
	// expected span. It is only correct on byte-ordered (statically
	// routed) networks; on adaptive networks the last byte can land
	// before earlier ones and the "completion" is premature (§IV-D).
	CompleteLastByte
	// CompleteSendRecv appends a 1-byte send after the put. Transport
	// ordering guarantees the send is delivered only after all prior put
	// bytes, making it the specification-compliant completion on
	// adaptively routed networks — at the cost of an extra message.
	CompleteSendRecv
)

// String returns the scheme's report name.
func (s CompletionScheme) String() string {
	switch s {
	case CompleteNone:
		return "none"
	case CompleteLastByte:
		return "last-byte-poll"
	case CompleteSendRecv:
		return "send-recv-fence"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Config parameterizes an RDMA endpoint.
type Config struct {
	// CarryData moves real bytes (tests); when false only timing flows.
	CarryData bool
	// PipelinedFence changes CompleteSendRecv behavior: when true the
	// 1-byte completion send is posted immediately after the put and the
	// *target* holds it until every put byte has landed (what an
	// aggressive runtime like UCX's progress engine does); when false the
	// initiator conservatively reaps the write's local completion — the
	// responder ACK round trip — before posting the send (what a naive
	// perftest modification does). Both are specification-compliant.
	PipelinedFence bool
}

// DefaultConfig returns the configuration used by tests and benchmarks.
func DefaultConfig() Config { return Config{CarryData: true} }

// MemoryRegion is a locally registered, remotely accessible buffer.
type MemoryRegion struct {
	RKey   uint32
	Region *memory.Region
	// BytesReceived counts put payload bytes landed in this region (model
	// bookkeeping; a real NIC has no such counter, which is the paper's
	// entire point — see rvma).
	BytesReceived int

	region memory.Region // Region's record, unless it reused a freed one
}

// RemoteBuffer is the initiator's handle to a remote registered region:
// exactly the (address, length, key) triple Figure 1's handshake ships
// back, which the initiator must retain for every subsequent operation.
type RemoteBuffer struct {
	Node int
	RKey uint32
	Addr memory.Addr
	Size int
}

// Stats aggregates endpoint counters.
type Stats struct {
	Handshakes     uint64 // buffer negotiations served (target side)
	AcksSent       uint64 // transport ACKs emitted (target side)
	Registrations  uint64
	PutsInitiated  uint64
	PutsPlaced     uint64 // messages fully landed (target side)
	BytesPlaced    uint64
	SendsDelivered uint64
	FencesHeld     uint64 // completion sends that had to wait for data
	Drops          uint64
	DupPackets     uint64 // retransmit duplicates discarded by the receiver
}

// Endpoint is one node's RDMA instance (host verbs library + NIC model).
type Endpoint struct {
	nic      *nic.NIC
	eng      sim.Tagged // engine handle stamping "rdma" on scheduled events
	sh       *shard     // the stages and slabs shared with the endpoints on the same engine
	cfg      Config
	nextRKey uint32 // beside cfg, in padding it would leave

	// mrs holds the registered regions by rkey: rkeys are handed out
	// densely from 1 and nothing deregisters, so region k is mrs[k-1].
	mrs []*MemoryRegion

	nextMsgID uint64

	// regsInFlight counts handshakes awaiting their RemoteBuffer reply.
	// Replies name the operation they answer, so nothing else on the
	// initiator side grows with the operations issued.
	regsInFlight int

	// peers holds one record per node this endpoint has exchanged data
	// with, sorted by node: a binary search reaches a peer's fence
	// ledger, receive queues and byte waits. The records are carved from
	// the shard's slab on first contact, or in bulk by AddPeers.
	peers sim.Table[peer]

	lastByteWaits []*LastByteWait
	asm           nic.Assembler
	relAsm        nic.RangeAssembler // duplicate-aware reassembly of reliable ops

	// The handles released for reuse (ReleaseRecv, ReleaseWait) and the
	// spent PutN and Send ops the next PutN and Send reuse, most recent
	// first.
	spareRecvs *RecvOp
	spareWaits []*sim.Future
	sparePuts  *PutOp
	spareSends *SendOp

	// The stages that follow the NIC's own resources (stage.go): each
	// holds the operations waiting for its next event, in firing order.
	// Each stage's handler is the endpoint, as a named pointer type
	// (sentStage, dmaStage), so setting it allocates nothing.
	sends sim.Stage[sender]     // a NIC send's local completion
	dmas  sim.Stage[completion] // a CQ entry or polled byte landing over the bus

	// onSent, when set, observes every PutN's local completion
	// (SetSentHandler); onReliable every reliable operation's first
	// local completion and ack (SetReliableHandler).
	onSent     SentHandler
	onReliable ReliableHandler

	tracer *trace.Tracer
	reg    *metrics.Registry

	// Metric handles (nil when no registry is attached).
	mHandshake *metrics.Histogram // request -> RemoteBuffer in hand, ns
	mRegMR     *metrics.Histogram // memory-registration cost, ns
	mFenceHold *metrics.Histogram // send enqueue -> fence satisfied, ns

	Stats Stats
}

// peer is what an endpoint keeps about one other node.
type peer struct {
	sent uint64 // cumulative put payload bytes issued to the peer (the fence ledger)
	recv uint64 // cumulative put payload bytes landed from the peer
	// qps are the target-side queues of the peer's queue pairs, indexed by
	// QP. InfiniBand receive queues belong to a queue pair, and
	// applications commonly run several QPs per peer: here one for data
	// and fences and one for control, such as credits.
	qps   [QueuePairs]queuePair
	waits []byteWait // cumulative-byte polls on the peer's puts
}

// QueuePairs is the number of queue pairs an endpoint keeps per peer,
// indexed from 0: FenceQP and one control QP.
const QueuePairs = 2

// queuePair holds one QP's posted receives and the sends waiting for a
// receive or for their fence, both matched in FIFO order.
type queuePair struct {
	recvs sim.FIFO[*RecvOp]
	sends sim.FIFO[pendingSend]
}

// AddPeers makes the records of the nodes among nodes that the endpoint
// has none of yet, as first contact with each would, but in bulk: a
// caller that knows its peers up front (a transport's Prepare) pays for
// them once, not per peer, and the table is grown to its exact size.
func (ep *Endpoint) AddPeers(nodes []int) { ep.peers.Add(nodes, &ep.sh.refs, &ep.sh.peers) }

// peer returns node's record, creating it on first contact.
//
//rvmalint:hot
func (ep *Endpoint) peer(node int) *peer {
	if p := ep.peers.Find(node); p != nil {
		return p
	}
	p := ep.sh.peers.New()
	ep.peers.Insert(node, p)
	return p
}

// sentTo returns the put payload bytes issued to node so far.
func (ep *Endpoint) sentTo(node int) uint64 {
	if p := ep.peers.Find(node); p != nil {
		return p.sent
	}
	return 0
}

// qp returns the queues of QP index i.
//
//rvmalint:hot
func (p *peer) qp(i int) *queuePair {
	if i < 0 || i >= QueuePairs {
		panic(fmt.Sprintf("rdma: QP index %d outside [0, %d)", i, QueuePairs))
	}
	return &p.qps[i]
}

// FenceQP is the QP index put completion sends arrive on.
const FenceQP = 0

// pendingSend is a send whose fence (prior put bytes) is not yet satisfied
// or which awaits a posted receive.
type pendingSend struct {
	fenceBytes uint64
	size       int
	enq        sim.Time // when the send reached the target (fence-hold metric)
}

// NewEndpoint attaches an RDMA endpoint to the NIC. The endpoint shares
// no stage or slab with any other: endpoints that share an engine are
// cheaper placed together by InitEndpoints.
func NewEndpoint(n *nic.NIC, cfg Config) *Endpoint {
	ep := new(Endpoint)
	ep.init(newShard(n), n, cfg)
	return ep
}

// InitEndpoints attaches eps[i], a zero Endpoint, to nics[i] for every i,
// as NewEndpoint would, and gives the endpoints on each engine one shared
// record: the constant-delay stages and the slabs their records are
// carved from. A cluster places its endpoints with it, one array per
// shard. The endpoints must not move or be copied afterwards: their NICs
// dispatch to them. It panics if two NICs on one engine disagree on a
// host overhead a shared stage waits out (HostPostOverhead, PollInterval,
// CQProcessOverhead, HostCompletionOverhead), naming the field.
func InitEndpoints(eps []*Endpoint, nics []*nic.NIC, cfg Config) {
	if len(eps) != len(nics) {
		panic(fmt.Sprintf("rdma: %d endpoints for %d NICs", len(eps), len(nics)))
	}
	var shards []*shard // one per engine; a cluster has a few
	for i, n := range nics {
		var sh *shard
		for _, s := range shards {
			if s.eng == n.Engine() {
				sh = s
				break
			}
		}
		if sh == nil {
			sh = newShard(n)
			shards = append(shards, sh)
		} else {
			sh.check(n)
		}
		eps[i].init(sh, n, cfg)
	}
}

func (ep *Endpoint) init(sh *shard, n *nic.NIC, cfg Config) {
	ep.nic, ep.eng, ep.sh, ep.cfg, ep.nextRKey = n, n.Engine().Tag("rdma"), sh, cfg, 1
	ep.relAsm.Init(n.MTU(), &sh.asmRings)
	ep.sends.Fn, ep.dmas.Fn = (*sentStage)(ep), (*dmaStage)(ep)
	n.SetReceiver((*receiver)(ep))
}

// SentHandler observes the local completion of an endpoint's PutNs,
// which hand out no handle of their own.
type SentHandler interface {
	// Sent runs when a PutN to dst has completed locally: its last data
	// packet, and its fence send if it has one, have left the NIC.
	Sent(dst int)
}

// SetSentHandler installs h to observe every PutN's local completion. A
// nil h removes the handler.
func (ep *Endpoint) SetSentHandler(h SentHandler) { ep.onSent = h }

// SetTracer attaches a tracer; registration, fences and acks go to
// trace.CatRDMA. A nil tracer detaches.
func (ep *Endpoint) SetTracer(t *trace.Tracer) { ep.tracer = t }

// SetReassemblyHorizon tells the endpoint how long after a reliable
// operation starts its packets can still arrive (a recovery manager's
// ReclaimAfter), so the duplicate-aware reassembly forgets older messages
// instead of remembering every one for the rest of the run.
func (ep *Endpoint) SetReassemblyHorizon(h sim.Time) { ep.relAsm.SetHorizon(h) }

// SetMetrics attaches a metrics registry: handshake and registration
// latency histograms, fence-hold distribution, the handshake, fence,
// drop and ack counters, which read the endpoint's Stats when a snapshot
// is taken, and (when spans are enabled) a per-put host_post -> nic_tx ->
// wire -> place span mirroring the RVMA one, so the two transports'
// pipelines compare stage by stage. A nil registry detaches the
// histograms and spans.
func (ep *Endpoint) SetMetrics(reg *metrics.Registry) {
	ep.reg = reg
	reg.CounterFrom("rdma.handshakes", &ep.Stats.Handshakes)
	reg.CounterFrom("rdma.fences_held", &ep.Stats.FencesHeld)
	reg.CounterFrom("rdma.drops", &ep.Stats.Drops)
	reg.CounterFrom("rdma.acks_sent", &ep.Stats.AcksSent)
	// Named like span histograms so FprintSpans shows the setup path RVMA
	// does not have next to the per-put stages.
	ep.mHandshake = reg.Histogram("span.rdma.handshake/total")
	ep.mRegMR = reg.Histogram("span.rdma.registration/total")
	ep.mFenceHold = reg.Histogram("span.rdma.put/fence_hold")
	node := ep.Node()
	reg.AddCollector(func() {
		held, queued := ep.queued()
		reg.Gauge(fmt.Sprintf("rdma%d.pending_sends", node)).Set(float64(held))
		reg.Gauge(fmt.Sprintf("rdma%d.posted_recvs", node)).Set(float64(queued))
		reg.Gauge(fmt.Sprintf("rdma%d.pending_asm", node)).Set(float64(ep.asm.Pending()))
	})
}

// Node returns the endpoint's node id.
func (ep *Endpoint) Node() int { return ep.nic.Node() }

// PendingRegistrations returns the number of buffer-negotiation handshakes
// this endpoint has initiated that have not yet received their RemoteBuffer
// reply (telemetry probe: outstanding registrations).
func (ep *Endpoint) PendingRegistrations() int { return ep.regsInFlight }

// PendingSendsHeld returns the number of target-side sends currently held
// for an unsatisfied fence or a missing posted receive.
func (ep *Endpoint) PendingSendsHeld() int {
	held, _ := ep.queued()
	return held
}

// queued counts the sends held and the receives posted over every QP.
func (ep *Endpoint) queued() (held, posted int) {
	for _, e := range ep.peers.Entries() {
		p := e.Rec
		for i := range p.qps {
			held += p.qps[i].sends.Len()
			posted += p.qps[i].recvs.Len()
		}
	}
	return held, posted
}

// NIC returns the underlying NIC model.
func (ep *Endpoint) NIC() *nic.NIC { return ep.nic }

// Memory returns the node's host memory.
func (ep *Endpoint) Memory() *memory.Memory { return ep.nic.Memory() }

// Engine returns the simulation engine.
func (ep *Endpoint) Engine() *sim.Engine { return ep.nic.Engine() }

// RegionByKey returns the locally registered region with the given rkey,
// or nil. Targets use it to find the region a negotiated handle refers to.
func (ep *Endpoint) RegionByKey(rkey uint32) *MemoryRegion {
	if rkey == 0 || int(rkey) > len(ep.mrs) {
		return nil
	}
	return ep.mrs[rkey-1]
}

// wire opcodes.
type opcode uint8

const (
	opRegRequest opcode = iota
	opRegReply
	opPutData
	opSend
)

// command is the wire payload. Every packet of a message carries the same
// command, which nothing writes once the message is sent; a packet's bytes
// are data[pkt.Offset:][:pkt.Size]. op, the flags and rkey share one word.
type command struct {
	op opcode
	// wantAck asks the target NIC to emit a transport acknowledgment when
	// the whole message has landed (RC write completion semantics).
	wantAck bool
	// reliable marks packets of a recovery-layer operation: the target
	// deduplicates them by offset (retransmits reuse the msgID) and counts
	// only unique bytes, so retransmitted packets can never falsely
	// satisfy a fence or double-deliver a send.
	reliable bool
	rkey     uint32
	msgID    uint64

	// ref is the initiator's operation (*RegOp, *PutOp, *SendOp, or a
	// reliable operation's attempt). The target copies it into the handshake reply it sends
	// back, or sends it back as the payload of a transport ACK, so the
	// initiator reaches the operation without keeping a table of
	// everything it has issued. A target dereferences it only to count
	// down a *PutOp or *SendOp, and only on the initiator's shard (PutOp).
	ref any

	// registration
	size int
	rb   RemoteBuffer

	// put
	msgOffset int
	total     int
	data      []byte // the whole message's payload (nil when !CarryData)

	// qp is the queue-pair index a send belongs to.
	qp int
	// send fence: cumulative put bytes sent on this (src,dst) pair before
	// this send was issued; the target may not deliver the send until that
	// many bytes have landed (transport resequencing).
	fenceBytes uint64
}
