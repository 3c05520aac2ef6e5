// Package rvma implements Remote Virtual Memory Access, the paper's
// primary contribution: a NIC architecture and host API in which
//
//   - initiators address *mailboxes* (virtual addresses), never physical
//     remote buffers, so no setup handshake is needed (§III-A, §IV-A);
//   - receivers manage their own resources by posting queues of buffers
//     ("buckets of buffers") to mailboxes (§IV-B);
//   - the NIC counts bytes or operations against a per-window threshold
//     and, when the threshold is reached, writes the completed buffer's
//     head address and length to a cache-line-aligned completion pointer
//     in host memory — the lightweight completion mechanism that works on
//     adaptively routed (unordered) networks (§III-B, §IV-C, §IV-D);
//   - completed buffers are retained per-epoch, enabling the first
//     hardware-level fault-tolerant remote memory access via Rewind
//     (§IV-E, §IV-F).
//
// The package models both the host-side API (the paper's §III-C calls,
// with Go names: InitWindow, PostBuffer, Close, IncEpoch, Epoch,
// GetBufPtrs, Put) and the NIC-side data path (lookup table, DMA
// placement by offset, counter update, completion unit), with all timing
// charged to the shared simulation substrate.
package rvma

import (
	"errors"
	"fmt"

	"rvma/internal/memory"
	"rvma/internal/metrics"
	"rvma/internal/nic"
	"rvma/internal/sim"
	"rvma/internal/trace"
)

// VAddr is an RVMA virtual address: a 64-bit mailbox identifier. It is
// *not* a memory address; the target NIC translates it to the physical
// head of the mailbox's currently active buffer (§III-B).
type VAddr uint64

// EpochType selects how the NIC counts toward a window's completion
// threshold (the paper's epoch_type).
type EpochType uint8

const (
	// EpochBytes counts payload bytes written into the active buffer.
	EpochBytes EpochType = iota
	// EpochOps counts completed put operations (a multi-packet put counts
	// once, when its last packet has been placed).
	EpochOps
)

// String returns the epoch type's report name.
func (t EpochType) String() string {
	switch t {
	case EpochBytes:
		return "EPOCH_BYTES"
	case EpochOps:
		return "EPOCH_OPS"
	default:
		return fmt.Sprintf("EpochType(%d)", int(t))
	}
}

// Mode selects a window's placement discipline (§IV-B).
type Mode uint8

const (
	// Steered is the paper's primary mode: every put carries an offset and
	// the NIC places payload at buffer head + offset, independent of
	// arrival order.
	Steered Mode = iota
	// Managed is the sockets-like alternative mode: the NIC appends
	// arriving bytes at the buffer's current fill position, in arrival
	// order (Receiver-Managed RVMA).
	Managed
)

// String returns the mode's report name.
func (m Mode) String() string {
	if m == Managed {
		return "managed"
	}
	return "steered"
}

// Errors returned by the host-side API.
var (
	ErrClosed      = errors.New("rvma: window closed")
	ErrNoWindow    = errors.New("rvma: no window at virtual address")
	ErrNoBuffer    = errors.New("rvma: no buffer posted")
	ErrNoHistory   = errors.New("rvma: requested epoch not in history")
	ErrBadArgument = errors.New("rvma: invalid argument")
)

// NotifyMode selects how host software observes the completion pointer.
type NotifyMode int

const (
	// NotifyMWait arms a Monitor/MWait watcher on the completion cell's
	// cache line and wakes within Profile.MWaitWake of the NIC's write.
	NotifyMWait NotifyMode = iota
	// NotifyPoll re-reads the completion cell every Profile.PollInterval.
	NotifyPoll
)

// String returns the notify mode's report name.
func (m NotifyMode) String() string {
	if m == NotifyPoll {
		return "poll"
	}
	return "mwait"
}

// Config parameterizes an RVMA endpoint (one node's NIC + host library).
type Config struct {
	// MaxHWCounters is the NIC's completion-counter capacity. Windows with
	// posted buffers beyond this spill their counters to host memory,
	// paying HostCounterPenalty per update (§III-B). Zero means unlimited.
	MaxHWCounters int
	// HostCounterPenalty is the extra per-update cost for spilled
	// counters. Zero defaults to one bus round trip (2x PCIe latency) —
	// "200 [ns] today" in the paper's terms; with a Gen 6 bus it shrinks
	// to tens of nanoseconds, as §III-B anticipates.
	HostCounterPenalty sim.Time
	// NACKEnabled makes the NIC reply with a NACK when a put targets a
	// closed or unknown mailbox; the paper permits disabling NACKs to shed
	// DoS load (§III-C).
	NACKEnabled bool
	// CarryData, when true, moves real payload bytes through the simulated
	// memory system so tests can verify placement; when false only sizes
	// and timing flow (used at motif scale). It sits beside NACKEnabled,
	// in padding it would leave: every endpoint holds its Config.
	CarryData bool
	// HistoryDepth is how many completed buffers each window retains for
	// Rewind. Zero disables fault-tolerance history.
	HistoryDepth int
	// Notification selects MWait or polling observation of completions.
	Notification NotifyMode
}

// DefaultConfig returns the configuration used by most experiments:
// 256 hardware counters (the paper notes parity with RDMA QP counting
// suffices), NACKs on, 4 epochs of history, MWait notification, and real
// data movement.
func DefaultConfig() Config {
	return Config{
		MaxHWCounters: 256,
		NACKEnabled:   true,
		HistoryDepth:  4,
		Notification:  NotifyMWait,
		CarryData:     true,
	}
}

// Stats aggregates endpoint-level counters for reports and tests.
type Stats struct {
	PutsInitiated    uint64
	PutsPlaced       uint64 // messages fully placed at this (target) endpoint
	BytesPlaced      uint64
	Completions      uint64 // buffer epochs completed by the completion unit
	EarlyCompletions uint64 // completions forced by IncEpoch
	Nacks            uint64 // NACKs this endpoint sent
	Drops            uint64 // packets discarded (no window/buffer, overrun)
	NoBuffer         uint64 // the Drops for want of a posted buffer
	CatchAllHits     uint64
	CounterSpills    uint64 // counter updates that paid the host-memory penalty
	GetsServed       uint64
	AcksSent         uint64 // placement acks for reliable (wantAck) puts
	DupPackets       uint64 // retransmit duplicates discarded by the receiver
	Rewinds          uint64 // Rewind calls (epoch recovery events)
}

// Endpoint is one node's RVMA instance: the host library and the NIC
// model, sharing the node's memory and bus.
type Endpoint struct {
	nic *nic.NIC
	eng sim.Tagged // engine handle stamping "rvma" on scheduled events
	sh  *shard     // the stages and slabs shared with the endpoints on the same engine
	cfg Config

	// lut is the NIC lookup table: mailbox virtual address -> window. The
	// paper stresses this is a single-lookup structure with no wildcard
	// support, unlike Portals matching (§III-A); a Go map models exactly
	// that "item found or no item found" semantic. The first window makes
	// it: an endpoint that never opens one allocates none.
	lut      map[VAddr]*Window
	catchAll *Window

	asm        nic.Assembler      // op counting for EPOCH_OPS and managed mode
	relAsm     nic.RangeAssembler // duplicate-aware reassembly of wantAck puts
	nextMsgID  uint64
	activeCtrs int // windows currently holding a HW counter

	// pipe holds the operations' pipeline stages and spare buffers
	// (stage.go); nil until first used and after DropPools.
	pipe *pipeline

	// onNack, when set, observes every NACKed plain put and every PutN's
	// local completion (SetNackHandler); onReliable every reliable put's
	// first local completion, ack and NACKs (SetReliableHandler).
	onNack     NackHandler
	onReliable ReliableHandler

	tracer *trace.Tracer
	reg    *metrics.Registry // for span lookup; nil when metrics detached

	Stats Stats

	// dbg holds simdebug conservation accounting; updated and checked
	// only when sim.DebugEnabled (see debug.go).
	dbg debugAccounting
}

// NewEndpoint attaches an RVMA endpoint to the given NIC. The NIC must not
// already have a protocol handler. The endpoint shares no stage or slab
// with any other: endpoints that share an engine are cheaper placed
// together by InitEndpoints.
func NewEndpoint(n *nic.NIC, cfg Config) *Endpoint {
	cfg = cfg.on(n)
	ep := new(Endpoint)
	ep.init(newShard(n, cfg.HostCounterPenalty), n, cfg)
	return ep
}

// InitEndpoints attaches eps[i], a zero Endpoint, to nics[i] for every i,
// as NewEndpoint would, and gives the endpoints on each engine one shared
// record: the constant-delay stages and the slabs their pipelines and
// PutN ops are carved from. A cluster places its endpoints with it, one
// array per shard. The endpoints must not move or be copied afterwards:
// their NICs dispatch to them. It panics if two endpoints on one engine
// disagree on a delay a shared stage waits out (the NIC's
// HostPostOverhead, the HostCounterPenalty), naming the field.
func InitEndpoints(eps []*Endpoint, nics []*nic.NIC, cfg Config) {
	if len(eps) != len(nics) {
		panic(fmt.Sprintf("rvma: %d endpoints for %d NICs", len(eps), len(nics)))
	}
	var shards []*shard // one per engine; a cluster has a few
	for i, n := range nics {
		ncfg := cfg.on(n)
		var sh *shard
		for _, s := range shards {
			if s.eng == n.Engine() {
				sh = s
				break
			}
		}
		if sh == nil {
			sh = newShard(n, ncfg.HostCounterPenalty)
			shards = append(shards, sh)
		} else {
			sh.check(n, ncfg.HostCounterPenalty)
		}
		eps[i].init(sh, n, ncfg)
	}
}

// on returns cfg with its defaults for an endpoint on n filled in.
func (cfg Config) on(n *nic.NIC) Config {
	if cfg.HostCounterPenalty == 0 {
		cfg.HostCounterPenalty = 2 * n.Bus().Latency()
	}
	return cfg
}

func (ep *Endpoint) init(sh *shard, n *nic.NIC, cfg Config) {
	ep.nic, ep.eng, ep.sh, ep.cfg = n, n.Engine().Tag("rvma"), sh, cfg
	ep.relAsm.Init(n.MTU(), &sh.asmRings)
	n.SetReceiver((*receiver)(ep))
}

// SetTracer attaches a tracer; window lifecycle, completions and NACKs go
// to trace.CatRVMA. A nil tracer detaches.
func (ep *Endpoint) SetTracer(t *trace.Tracer) { ep.tracer = t }

// SetReassemblyHorizon tells the endpoint how long after a reliable
// operation starts its packets can still arrive (a recovery manager's
// ReclaimAfter), so the duplicate-aware reassembly forgets older messages
// instead of remembering every one for the rest of the run.
func (ep *Endpoint) SetReassemblyHorizon(h sim.Time) { ep.relAsm.SetHorizon(h) }

// SetMetrics attaches a metrics registry: the protocol counters read the
// endpoint's Stats when a snapshot is taken, summed over every endpoint on
// the registry; mailbox depth and LUT occupancy are sampled by a per-node
// collector; and (when the registry has spans enabled) each put is
// tracked through host_post -> nic_tx -> wire -> place -> complete
// stages. A nil registry detaches the spans and timeline.
func (ep *Endpoint) SetMetrics(reg *metrics.Registry) {
	ep.reg = reg
	reg.CounterFrom("rvma.nacks", &ep.Stats.Nacks)
	reg.CounterFrom("rvma.drops", &ep.Stats.Drops)
	reg.CounterFrom("rvma.posted_buffer_exhaustion", &ep.Stats.NoBuffer)
	reg.CounterFrom("rvma.epoch_completions", &ep.Stats.Completions)
	reg.CounterFrom("rvma.early_completions", &ep.Stats.EarlyCompletions)
	reg.CounterFrom("rvma.counter_spills", &ep.Stats.CounterSpills)
	reg.CounterFrom("rvma.rewinds", &ep.Stats.Rewinds)
	node := ep.Node()
	reg.AddCollector(func() {
		depth := 0
		for _, w := range ep.lut {
			depth += len(w.queue)
		}
		reg.Gauge(fmt.Sprintf("rvma%d.mailbox_depth", node)).Set(float64(depth))
		reg.Gauge(fmt.Sprintf("rvma%d.lut_size", node)).Set(float64(len(ep.lut)))
		reg.Gauge(fmt.Sprintf("rvma%d.hw_counters", node)).Set(float64(ep.activeCtrs))
		reg.Gauge(fmt.Sprintf("rvma%d.pending_asm", node)).Set(float64(ep.asm.Pending()))
	})
}

// NackHandler observes an endpoint's plain puts on the initiator side:
// the NACKed ones, and the local completion of each PutN, which hands out
// no handle of its own.
type NackHandler interface {
	// Nacked runs when the first NACK of a plain put to dst of size bytes
	// arrives, right after the put's Nack future completes.
	Nacked(dst, size int)
	// Sent runs when a PutN to dst has completed locally: its last
	// packet has left the NIC. Local completions run in the order the
	// puts were issued, since one post stage feeds one NIC send pipe.
	Sent(dst int)
}

// SetNackHandler installs h to observe every NACKed plain put and every
// PutN's local completion. Unlike a waiter on each put's futures, one
// handler serves every put the endpoint issues, so a sender that retries
// NACKed puts arms its retry once. A nil h removes the handler.
func (ep *Endpoint) SetNackHandler(h NackHandler) { ep.onNack = h }

// Node returns the endpoint's node id.
func (ep *Endpoint) Node() int { return ep.nic.Node() }

// NIC returns the underlying NIC model.
func (ep *Endpoint) NIC() *nic.NIC { return ep.nic }

// Memory returns the node's host memory.
func (ep *Endpoint) Memory() *memory.Memory { return ep.nic.Memory() }

// Engine returns the simulation engine.
func (ep *Endpoint) Engine() *sim.Engine { return ep.nic.Engine() }

// Config returns the endpoint configuration.
func (ep *Endpoint) Config() Config { return ep.cfg }

// LUTSize returns the number of mailboxes currently in the lookup table
// (diagnostics; the paper sizes LUT entries at 24 bytes each, §IV-A).
func (ep *Endpoint) LUTSize() int { return len(ep.lut) }

// PostedBuffers returns the total posted-buffer occupancy across every
// mailbox on this endpoint (telemetry probe; the sum is order-independent
// over the LUT).
func (ep *Endpoint) PostedBuffers() int {
	depth := 0
	for _, w := range ep.lut {
		depth += len(w.queue)
	}
	return depth
}

// CounterProgress returns the sum of the in-progress epoch counters across
// every mailbox: how far the completion unit has counted toward the next
// threshold crossings (telemetry probe).
func (ep *Endpoint) CounterProgress() int64 {
	var total int64
	for _, w := range ep.lut {
		total += w.counter
	}
	return total
}

// EpochTotal returns the sum of completed epochs across every mailbox.
func (ep *Endpoint) EpochTotal() int64 {
	var total int64
	for _, w := range ep.lut {
		total += w.epoch
	}
	return total
}

// SetCatchAll designates win as the endpoint's catch-all mailbox: puts
// addressed to unknown or closed mailboxes are steered into it instead of
// being dropped (§III-C mentions catch-all mailboxes as part of a full
// RVMA specification).
func (ep *Endpoint) SetCatchAll(win *Window) {
	ep.catchAll = win
}

// wire opcodes.
type opcode uint8

const (
	opPut opcode = iota
	opNack
	opGetReq
	opGetReply
)

// command is the protocol payload carried in fabric packets. Every packet
// of a message carries the same command, which nothing writes once the
// message is sent; a packet's bytes are data[pkt.Offset:][:pkt.Size].
// The command stays in the 96 B size class: op packs beside wantAck.
type command struct {
	op        opcode
	wantAck   bool // reliable put: target acks full placement
	msgID     uint64
	vaddr     VAddr
	msgOffset int    // user offset of the whole message within the buffer
	total     int    // total message payload bytes; a get request's is the length it asks for
	data      []byte // the whole message's payload bytes (nil when !CarryData)
	status    error  // NACK reason

	// ref is the initiator's operation (*PutOp, *GetOp, or a reliable
	// put's attempt).
	// The target copies it into every NACK and get reply it sends back,
	// and sends a reliable put's as the placement ack itself, so the
	// initiator reaches the operation without keeping a table of
	// everything it has issued. A target dereferences it only to count
	// down a *PutOp, and only on the initiator's shard (PutOp).
	ref any
}
