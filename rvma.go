// Package rvma is a library-scale reproduction of "RVMA: Remote Virtual
// Memory Access" (Grant, Levenhagen, Dosanjh, Widener — Sandia National
// Laboratories, IPDPS 2021): the RVMA NIC architecture, a traditional
// RDMA baseline, and the discrete-event network substrate both run on,
// with an experiment harness that regenerates every figure in the paper's
// evaluation.
//
// This root package is the public facade. It re-exports the RVMA host API
// (the paper's §III-C calls) and provides Testbed, a convenience builder
// that wires a simulated network of RVMA endpoints:
//
//	tb, _ := rvma.NewTestbed(2, rvma.TestbedConfig{})
//	win, _ := tb.Endpoints[1].InitWindow(0x11FF0011, 1024, rvma.EpochBytes)
//	buf, _ := win.PostBuffer(1024)
//	tb.Engine.Schedule(0, func() {
//	    op := tb.Endpoints[0].Put(1, 0x11FF0011, 0, payload)
//	    op.Local.OnComplete(func() { /* the send buffer is reusable */ })
//	})
//	tb.Engine.Run()
//
// The implementation packages live under internal/: sim (event kernel),
// memory, pcie, topology, fabric, nic (shared substrate), rvma (the
// contribution), rdma (baseline), hostif/motif/collective/harness
// (experiments). See DESIGN.md for the full inventory and EXPERIMENTS.md
// for paper-versus-measured results.
package rvma

import (
	"rvma/internal/fabric"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	irvma "rvma/internal/rvma"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// Core RVMA types, re-exported from the implementation package. VAddr is
// a 64-bit mailbox identifier — a virtual address, never a physical one.
type (
	VAddr        = irvma.VAddr
	EpochType    = irvma.EpochType
	Mode         = irvma.Mode
	NotifyMode   = irvma.NotifyMode
	Config       = irvma.Config
	Endpoint     = irvma.Endpoint
	Window       = irvma.Window
	Buffer       = irvma.Buffer
	PutOp        = irvma.PutOp
	GetOp        = irvma.GetOp
	Notification = irvma.Notification
	Stats        = irvma.Stats
)

// Completion-counting modes (the paper's epoch_type).
const (
	EpochBytes = irvma.EpochBytes
	EpochOps   = irvma.EpochOps
)

// Window placement modes (§IV-B).
const (
	Steered = irvma.Steered
	Managed = irvma.Managed
)

// Host notification mechanisms (§IV-C).
const (
	NotifyMWait = irvma.NotifyMWait
	NotifyPoll  = irvma.NotifyPoll
)

// API errors.
var (
	ErrClosed      = irvma.ErrClosed
	ErrNoWindow    = irvma.ErrNoWindow
	ErrNoBuffer    = irvma.ErrNoBuffer
	ErrNoHistory   = irvma.ErrNoHistory
	ErrBadArgument = irvma.ErrBadArgument
)

// DefaultConfig returns the endpoint configuration used by most
// experiments (256 hardware counters, NACKs enabled, 4-epoch history,
// MWait notification, real data movement).
func DefaultConfig() Config { return irvma.DefaultConfig() }

// NewEndpoint attaches an RVMA endpoint (host library + NIC model) to a
// NIC built on the simulation substrate.
func NewEndpoint(n *nic.NIC, cfg Config) *Endpoint { return irvma.NewEndpoint(n, cfg) }

// TestbedConfig parameterizes NewTestbed.
type TestbedConfig struct {
	// Topology defaults to a single switch joining all nodes.
	Topology topology.Topology
	// Fabric defaults to fabric.DefaultConfig (100 Gbps, static routing).
	Fabric *fabric.Config
	// Profile defaults to nic.DefaultProfile.
	Profile *nic.Profile
	// PCIe defaults to pcie.Gen4x16 (the paper's 150 ns bus).
	PCIe *pcie.Config
	// Endpoint defaults to DefaultConfig.
	Endpoint *Config
	// Seed defaults to 1.
	Seed uint64
}

// Testbed is a ready-to-run simulated network of RVMA endpoints.
type Testbed struct {
	Engine    *sim.Engine
	Network   *fabric.Network
	Endpoints []*Endpoint
}

// NewTestbed builds an n-node simulation with an RVMA endpoint per node.
func NewTestbed(n int, cfg TestbedConfig) (*Testbed, error) {
	topo := cfg.Topology
	if topo == nil {
		topo = topology.NewSingleSwitch(n)
	}
	fcfg := fabric.DefaultConfig()
	if cfg.Fabric != nil {
		fcfg = *cfg.Fabric
	}
	prof := nic.DefaultProfile()
	if cfg.Profile != nil {
		prof = *cfg.Profile
	}
	bus := pcie.Gen4x16()
	if cfg.PCIe != nil {
		bus = *cfg.PCIe
	}
	ecfg := DefaultConfig()
	if cfg.Endpoint != nil {
		ecfg = *cfg.Endpoint
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	eng := sim.NewEngine(seed)
	net, err := fabric.New(eng, topo, fcfg)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Engine: eng, Network: net}
	for node := 0; node < n && node < topo.NumNodes(); node++ {
		tb.Endpoints = append(tb.Endpoints,
			NewEndpoint(nic.New(eng, net, node, bus, prof), ecfg))
	}
	return tb, nil
}

// Run executes the simulation to quiescence and returns the final time.
func (tb *Testbed) Run() sim.Time { return tb.Engine.Run() }
