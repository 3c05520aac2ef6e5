// Package hostif defines the host-interface timing profiles behind the
// paper's two "real world" testbeds (§V-A):
//
//   - Verbs: OFED perftest over native IB Verbs on Intel OmniPath 100 Gbps
//     with Skylake (Platinum 8160) hosts — Figure 4;
//   - UCX: UCP over Mellanox ConnectX-5 EDR on ARM ThunderX2 hosts,
//     UCX 1.9.0 — Figure 5.
//
// We cannot run on that hardware, so each testbed becomes a timing profile
// (host posting cost, completion-path cost, NIC pipeline costs) applied to
// the shared simulation substrate. The paper's comparison is structural —
// with versus without the trailing send/recv and the setup handshake — so
// reproducing the published *shape* requires only that the profiles sit in
// the right regime: microsecond-scale small-message latencies, with UCX
// carrying more host software overhead than raw Verbs (its protocol layer)
// on slower cores.
package hostif

import (
	"rvma/internal/fabric"
	"rvma/internal/nic"
	"rvma/internal/sim"
)

// Profile bundles a NIC/host timing profile with the fabric settings of
// the corresponding testbed.
type Profile struct {
	Name   string
	NIC    nic.Profile
	Fabric fabric.Config
	// PipelinedFence selects the runtime's send-after-put discipline for
	// RDMA on adaptive networks: perftest over raw Verbs reaps the write
	// completion before posting the send (false), while UCX's progress
	// engine pipelines the send behind the data (true). This is why the
	// paper's measured RDMA penalty is larger on Verbs (65.8%% reduction)
	// than on UCX (45.8%%).
	PipelinedFence bool
}

// Verbs returns the Figure 4 testbed profile: lean host software (native
// verbs on fast x86 cores), 100 Gbps links.
func Verbs() Profile {
	p := nic.Profile{
		Name:                   "verbs",
		HostPostOverhead:       160 * sim.Nanosecond,
		HostCompletionOverhead: 150 * sim.Nanosecond,
		CQProcessOverhead:      320 * sim.Nanosecond,
		SendPacketProc:         50 * sim.Nanosecond,
		RecvPacketProc:         50 * sim.Nanosecond,
		LookupLatency:          25 * sim.Nanosecond,
		PollInterval:           40 * sim.Nanosecond,
		MWaitWake:              5 * sim.Nanosecond,
		RegistrationBase:       1500 * sim.Nanosecond,
		RegistrationPerPage:    20 * sim.Nanosecond,
		DoorbellBytes:          8,
	}
	f := fabric.DefaultConfig()
	f.LinkGbps = 100
	f.LinkLatency = 120 * sim.Nanosecond // OmniPath-class switch+cable path
	f.SwitchLatency = 110 * sim.Nanosecond
	f.MTU = 2048
	return Profile{Name: "verbs", NIC: p, Fabric: f, PipelinedFence: false}
}

// UCX returns the Figure 5 testbed profile: the UCP protocol layer adds
// host software cost, and ThunderX2 cores process the completion path more
// slowly; ConnectX-5 EDR runs at 100 Gbps.
func UCX() Profile {
	p := nic.Profile{
		Name:                   "ucx",
		HostPostOverhead:       260 * sim.Nanosecond,
		HostCompletionOverhead: 250 * sim.Nanosecond,
		CQProcessOverhead:      1050 * sim.Nanosecond,
		SendPacketProc:         60 * sim.Nanosecond,
		RecvPacketProc:         60 * sim.Nanosecond,
		LookupLatency:          25 * sim.Nanosecond,
		PollInterval:           60 * sim.Nanosecond,
		MWaitWake:              8 * sim.Nanosecond,
		RegistrationBase:       2200 * sim.Nanosecond,
		RegistrationPerPage:    25 * sim.Nanosecond,
		DoorbellBytes:          8,
	}
	f := fabric.DefaultConfig()
	f.LinkGbps = 100
	f.LinkLatency = 150 * sim.Nanosecond
	f.SwitchLatency = 120 * sim.Nanosecond
	f.MTU = 2048
	return Profile{Name: "ucx", NIC: p, Fabric: f, PipelinedFence: true}
}

// Scale returns a copy of p with every host-software and NIC-pipeline
// duration multiplied by factor. The latency figures apply one factor per
// run (ledger.RunSpec.HostScale) to model run-to-run variation
// (thermal/noise effects on the host), producing the error bars Figure 5
// reports.
func (p Profile) Scale(factor float64) Profile {
	s := p
	mul := func(t sim.Time) sim.Time { return sim.ScaleF(t, factor) }
	s.NIC.HostPostOverhead = mul(p.NIC.HostPostOverhead)
	s.NIC.HostCompletionOverhead = mul(p.NIC.HostCompletionOverhead)
	s.NIC.CQProcessOverhead = mul(p.NIC.CQProcessOverhead)
	s.NIC.SendPacketProc = mul(p.NIC.SendPacketProc)
	s.NIC.RecvPacketProc = mul(p.NIC.RecvPacketProc)
	s.NIC.LookupLatency = mul(p.NIC.LookupLatency)
	s.NIC.PollInterval = mul(p.NIC.PollInterval)
	s.NIC.RegistrationBase = mul(p.NIC.RegistrationBase)
	return s
}
