// Package nic provides the NIC machinery shared by the RVMA and RDMA
// models: a timed send pipeline (doorbell, payload DMA, per-packet
// processing, injection), a timed receive pipeline, message segmentation
// and reassembly, and the timing profile abstraction the experiments
// parameterize ("verbs"-like and "ucx"-like host interfaces in the paper's
// Figures 4 and 5).
//
// Both protocol models sit on identical plumbing, which is the paper's
// methodological point: "The new RVMA and RDMA models ... both use the
// identical timing for non-RDMA related traffic considerations" (§V-B).
// Only the protocol state machines above this package differ.
package nic

import (
	"fmt"
	"math"

	"rvma/internal/fabric"
	"rvma/internal/memory"
	"rvma/internal/metrics"
	"rvma/internal/pcie"
	"rvma/internal/sim"
	"rvma/internal/trace"
)

// Profile holds host-software and NIC-pipeline timing parameters. The
// microbenchmark host interfaces (Verbs, UCX) are Profiles; the motif
// transports reuse them.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// HostPostOverhead is the host CPU cost to build and post one work
	// request (ibv_post_send / ucp_put_nbx and friends).
	HostPostOverhead sim.Time
	// HostCompletionOverhead is the host CPU cost to observe and act on a
	// lightweight completion: a known memory location changing (RVMA's
	// completion pointer, RDMA's last-byte poll).
	HostCompletionOverhead sim.Time
	// CQProcessOverhead is the host CPU cost to reap one entry from a
	// shared completion queue through the runtime (CQ poll hit, entry
	// decode, tag match / callback dispatch). The paper's §IV-C argues
	// this path is inherently heavier than a per-buffer completion
	// pointer; UCX's progress engine makes it heavier still.
	CQProcessOverhead sim.Time
	// SendPacketProc is NIC per-packet send-side processing.
	SendPacketProc sim.Time
	// RecvPacketProc is NIC per-packet receive-side processing.
	RecvPacketProc sim.Time
	// LookupLatency is the receive-side steering lookup: the RVMA mailbox
	// LUT or the RDMA MR/QP validation. The paper argues both are small and
	// comparable (§IV-A); they default equal so neither model is favored.
	LookupLatency sim.Time
	// PollInterval is the host's completion polling cadence.
	PollInterval sim.Time
	// MWaitWake is the wake-from-MWait latency when a watched line is
	// written ("as little as one clock cycle", §IV-C).
	MWaitWake sim.Time
	// RegistrationBase is the fixed host cost of registering a memory
	// region (ibv_reg_mr syscall and setup).
	RegistrationBase sim.Time
	// RegistrationPerPage is the added pinning cost per 4 KiB page.
	RegistrationPerPage sim.Time
	// DoorbellBytes is the size of the MMIO doorbell write.
	DoorbellBytes int
}

// DefaultProfile returns a generic high-performance NIC profile used by
// tests; the experiment profiles live in package hostif.
func DefaultProfile() Profile {
	return Profile{
		Name:                   "default",
		HostPostOverhead:       100 * sim.Nanosecond,
		HostCompletionOverhead: 75 * sim.Nanosecond,
		CQProcessOverhead:      150 * sim.Nanosecond,
		SendPacketProc:         40 * sim.Nanosecond,
		RecvPacketProc:         40 * sim.Nanosecond,
		LookupLatency:          25 * sim.Nanosecond,
		PollInterval:           20 * sim.Nanosecond,
		MWaitWake:              5 * sim.Nanosecond,
		RegistrationBase:       900 * sim.Nanosecond,
		RegistrationPerPage:    15 * sim.Nanosecond,
		DoorbellBytes:          8,
	}
}

// RegistrationTime returns the modeled cost of registering size bytes.
func (p Profile) RegistrationTime(size int) sim.Time {
	pages := (size + 4095) / 4096
	return p.RegistrationBase + sim.Scale(pages, p.RegistrationPerPage)
}

// Receiver is the protocol that owns a NIC: an endpoint, attached once
// (SetReceiver).
type Receiver interface {
	// Receive consumes a protocol packet on the receive side, after the
	// NIC receive pipeline has accounted its processing time. It must
	// not retain pkt after it returns: the fabric recycles the packet
	// then, so a receiver copies out the fields and the payload it still
	// needs. Every packet of a message carries the one payload the
	// sender gave it (Send, or SendMessage's build); a receiver reads
	// that payload, never writes it, and finds its packet's part of the
	// message at pkt.Offset.
	Receive(pkt *fabric.Packet)
}

// Handler adapts a function to Receiver, for tests and tools that
// install a callback rather than an endpoint (SetHandler).
type Handler func(pkt *fabric.Packet)

// Receive calls h.
func (h Handler) Receive(pkt *fabric.Packet) { h(pkt) }

// NIC is one node's network interface: bus, pipelines and dispatch. It
// holds its node's memory, bus and pipelines by value, so a NIC is one
// object, and a cluster keeps its NICs in arrays (see Init).
type NIC struct {
	node int
	eng  sim.Tagged
	net  *fabric.Network
	mem  memory.Memory
	bus  pcie.Bus
	prof Profile

	sendPipe sim.Resource
	recvPipe sim.Resource
	recv     Receiver

	tracer *trace.Tracer

	// Stats.
	MessagesSent       uint64
	PacketsSent        uint64
	ControlPacketsSent uint64 // NIC-generated ACK/NACK packets, also in PacketsSent
	PacketsReceived    uint64
	BytesSent          uint64
}

// New attaches a NIC to node on net, with its own memory and bus.
func New(eng *sim.Engine, net *fabric.Network, node int, busCfg pcie.Config, prof Profile) *NIC {
	n := new(NIC)
	n.Init(eng, net, node, busCfg, prof)
	return n
}

// Init is New for a NIC the caller has placed: it attaches n, a zero NIC,
// to node on net. A cluster builds its NICs with it in one array per
// shard, so a node's NIC costs a slot in that array and allocates
// nothing more: the NIC attaches to the fabric as the node's Host. n must
// not move or be copied afterwards: the fabric delivers to it, and its
// memory's regions point back at it.
func (n *NIC) Init(eng *sim.Engine, net *fabric.Network, node int, busCfg pcie.Config, prof Profile) {
	n.node, n.eng, n.net, n.prof = node, eng.Tag("nic"), net, prof
	n.bus.Init(busCfg)
	net.Attach(node, n)
}

// Node returns the attached node id.
func (n *NIC) Node() int { return n.node }

// Engine returns the simulation engine.
func (n *NIC) Engine() *sim.Engine { return n.eng.Engine }

// Memory returns the node's host memory.
func (n *NIC) Memory() *memory.Memory { return &n.mem }

// Bus returns the node's PCIe bus model.
func (n *NIC) Bus() *pcie.Bus { return &n.bus }

// Profile returns the timing profile.
func (n *NIC) Profile() Profile { return n.prof }

// Network returns the fabric this NIC injects into.
func (n *NIC) Network() *fabric.Network { return n.net }

// MTU returns the fabric's maximum payload per packet.
func (n *NIC) MTU() int { return n.net.MTU() }

// Packets returns how many packets SendMessage cuts a message of total
// payload bytes into: one per MTU, and one for an empty message.
func (n *NIC) Packets(total int) int {
	mtu := n.MTU()
	return max(1, (total+mtu-1)/mtu)
}

// SameShard reports whether node's events run on this NIC's shard: only
// then may this node's components write state that node's also write.
func (n *NIC) SameShard(node int) bool { return n.net.NodeShard(node) == n.net.NodeShard(n.node) }

// SetTracer attaches a tracer; send/receive pipeline activity goes to
// trace.CatNIC. A nil tracer detaches.
func (n *NIC) SetTracer(t *trace.Tracer) { n.tracer = t }

// SetMetrics attaches a metrics registry. The message, packet and byte
// counters read the NIC's Stats fields when a snapshot is taken, summed
// over every NIC on the registry; per-node pipeline occupancy is sampled
// by a collector. A nil registry attaches nothing.
func (n *NIC) SetMetrics(reg *metrics.Registry) {
	reg.CounterFrom("nic.messages_sent", &n.MessagesSent)
	reg.CounterFrom("nic.packets_sent", &n.PacketsSent)
	reg.CounterFrom("nic.bytes_sent", &n.BytesSent)
	reg.CounterFrom("nic.control_packets_sent", &n.ControlPacketsSent)
	reg.AddCollector(func() {
		reg.Gauge(fmt.Sprintf("nic%d.send_queue_ns", n.node)).Set(n.sendPipe.Backlog(n.eng.Engine).Nanoseconds())
		reg.Gauge(fmt.Sprintf("nic%d.recv_queue_ns", n.node)).Set(n.recvPipe.Backlog(n.eng.Engine).Nanoseconds())
	})
}

// SendBacklog returns how long a packet entering the send pipeline now
// would wait before processing starts (telemetry: NIC pipeline backlog).
func (n *NIC) SendBacklog() sim.Time { return n.sendPipe.Backlog(n.eng.Engine) }

// RecvBacklog returns how long a packet entering the receive pipeline now
// would wait before processing starts.
func (n *NIC) RecvBacklog() sim.Time { return n.recvPipe.Backlog(n.eng.Engine) }

// DMABacklog returns how long a DMA issued now would wait for the host
// bus data path (telemetry: in-flight DMA).
func (n *NIC) DMABacklog() sim.Time { return n.bus.Backlog(n.eng.Engine) }

// SetReceiver installs the protocol's receive dispatch. Exactly one
// protocol owns a NIC. An endpoint passes a named pointer type over its
// own record, so installing it allocates nothing.
func (n *NIC) SetReceiver(r Receiver) {
	if n.recv != nil {
		panic(fmt.Sprintf("nic: node %d handler set twice", n.node))
	}
	n.recv = r
}

// SetHandler is SetReceiver for a callback.
func (n *NIC) SetHandler(h Handler) { n.SetReceiver(h) }

// Deliver implements fabric.Host: account receive-pipeline time, then
// hand the packet to the protocol. The handoff is the packet's own event,
// and its continuation is one function for every NIC (received), so
// receiving allocates nothing.
//
//rvmalint:hot
func (n *NIC) Deliver(pkt *fabric.Packet) {
	if n.recv == nil {
		panic(fmt.Sprintf("nic: node %d received packet with no protocol handler", n.node))
	}
	n.PacketsReceived++
	if n.tracer != nil {
		//rvmalint:allow hotalloc -- tracer-only branch; a traced run is a debugging run
		n.tracer.Eventf(trace.CatNIC, "nic%d rx #%d from %d %dB", n.node, pkt.ID, pkt.Src, pkt.Size)
	}
	done := n.recvPipe.Acquire(n.eng.Engine, n.prof.RecvPacketProc+n.prof.LookupLatency)
	n.eng.AtH(done, n.net.Then(pkt, received))
}

// received hands pkt, at the end of its receive pipeline, to its NIC's
// protocol. The fabric delivered pkt to its destination's host, which is
// that NIC.
//
//rvmalint:hot
func received(pkt *fabric.Packet) {
	pkt.Network().Host(pkt.Dst).(*NIC).recv.Receive(pkt)
}

// SendMessage segments a message of total payload bytes to dst and pushes
// it through the send pipeline: one doorbell write, then per packet a
// payload DMA read over the bus and NIC processing, then fabric injection.
// build returns each packet's protocol payload given its (offset, size)
// within the message; the protocols return one read-only command for every
// packet, and each packet records its offset in Packet.Offset. A message
// is at most math.MaxInt32 bytes. The optional done (at most one) is the caller's
// continuation: it fires as its own event when the last packet has been
// handed to the fabric (local send completion); remote delivery semantics
// belong to the protocols. Without done that event still fires, running
// a no-op, so the event sequence does not depend on who is listening.
// SendMessage returns the time of that event. It never decreases from
// one message to the next, since every message's last packet leaves the
// FIFO send pipeline after the previous message's, and ties fire in call
// order, so a protocol may queue its continuations in call order behind
// one done handler (a sim.Stage's).
//
// The caller is responsible for modeling host software overhead
// (Profile.HostPostOverhead) before invoking SendMessage; the protocols do
// this so that zero-copy paths and doorbell batching can be modeled
// distinctly later.
//
//rvmalint:hot
func (n *NIC) SendMessage(dst, total int, build func(off, size int) any, done ...sim.Handler) sim.Time {
	return n.send(dst, total, build, nil, done)
}

// Send is SendMessage for a message whose every packet carries payload,
// which is how the protocols send their commands: no build function, so
// nothing is bound per message.
//
//rvmalint:hot
func (n *NIC) Send(dst, total int, payload any, done ...sim.Handler) sim.Time {
	return n.send(dst, total, nil, payload, done)
}

// send is SendMessage and Send: a packet's payload is build's, or payload
// when build is nil.
//
//rvmalint:hot
func (n *NIC) send(dst, total int, build func(off, size int) any, payload any, done []sim.Handler) sim.Time {
	if total < 0 || total > math.MaxInt32 {
		panic(fmt.Sprintf("nic: message size %d outside [0, MaxInt32]", total))
	}
	if len(done) > 1 {
		panic("nic: SendMessage takes at most one completion callback")
	}
	n.MessagesSent++
	n.BytesSent += uint64(total)
	if n.tracer != nil {
		//rvmalint:allow hotalloc -- tracer-only branch; a traced run is a debugging run
		n.tracer.Eventf(trace.CatNIC, "nic%d tx msg dst=%d %dB", n.node, dst, total)
	}

	// Doorbell: a small MMIO write crossing the bus.
	doorbellDone := n.bus.TransferTime(n.eng.Engine, n.prof.DoorbellBytes)

	mtu := n.MTU()
	off := 0
	last := doorbellDone
	for {
		size := total - off
		if size > mtu {
			size = mtu
		}
		// Payload DMA read from host memory (serializes on the bus), then
		// per-packet send processing (serializes on the send pipeline).
		dmaDone := n.bus.TransferTime(n.eng.Engine, size)
		if dmaDone < doorbellDone {
			dmaDone = doorbellDone
		}
		procDone := n.sendPipe.AcquireAt(dmaDone, n.prof.SendPacketProc)
		p := payload
		if build != nil {
			p = build(off, size)
		}
		pkt := n.net.NewPacket(n.node, dst, size, p)
		pkt.Offset = int32(off)
		n.PacketsSent++
		n.eng.AtH(procDone, n.net.InjectEvent(pkt))
		if procDone > last {
			last = procDone
		}
		off += size
		if off >= total {
			break
		}
	}
	sent := sentNoop
	if len(done) == 1 {
		sent = done[0]
	}
	n.eng.AtH(last, sent)
	return last
}

// sentNoop is the local-completion event of a send nobody waits on.
var sentNoop sim.Handler = sim.Func(func() {})

// InjectControl sends a NIC-generated control packet (transport ACK, NACK)
// to dst. Control packets are fabricated by the NIC itself: they pay
// send-pipeline processing but never cross the host bus, unlike
// host-posted messages.
//
//rvmalint:hot
func (n *NIC) InjectControl(dst int, payload any) {
	n.PacketsSent++
	n.ControlPacketsSent++
	if n.tracer != nil {
		//rvmalint:allow hotalloc -- tracer-only branch; a traced run is a debugging run
		n.tracer.Eventf(trace.CatNIC, "nic%d ctrl dst=%d", n.node, dst)
	}
	done := n.sendPipe.Acquire(n.eng.Engine, n.prof.SendPacketProc)
	n.eng.AtH(done, n.net.InjectEvent(n.net.NewPacket(n.node, dst, 0, payload)))
}

// MsgKey identifies an in-flight message for reassembly: source node plus
// the source's message id.
type MsgKey struct {
	Src   int
	MsgID uint64
}

// Assembler tracks partially received messages so a protocol can tell when
// every byte of a multi-packet message has arrived regardless of arrival
// order. RDMA's send/recv-fenced completion needs it to model transport
// resequencing; RVMA's EPOCH_OPS counting needs it to count an operation
// exactly once. The zero value is an empty assembler, and endpoints hold
// theirs by value.
type Assembler struct {
	// inflight is made by the first multi-packet message, so an endpoint
	// that only sees single-packet messages allocates none. States are
	// held by value: a multi-packet message allocates nothing.
	inflight map[MsgKey]asmState
}

type asmState struct {
	received int
	total    int
}

// Add records size arrived bytes for message key with the given total
// message size, returning true exactly once: when the message completes.
// Single-packet messages (size == total on first Add) complete immediately
// without map traffic.
func (a *Assembler) Add(key MsgKey, size, total int) bool {
	st, ok := a.inflight[key]
	if !ok {
		if size >= total {
			return true
		}
		if a.inflight == nil {
			a.inflight = make(map[MsgKey]asmState)
		}
		a.inflight[key] = asmState{received: size, total: total}
		return false
	}
	st.received += size
	if st.received >= st.total {
		delete(a.inflight, key)
		return true
	}
	a.inflight[key] = st
	return false
}

// Pending returns the number of incomplete messages (for leak tests).
func (a *Assembler) Pending() int { return len(a.inflight) }
