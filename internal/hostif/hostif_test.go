package hostif

import (
	"testing"

	"rvma/internal/sim"
)

func TestProfilesDifferAsTestbedsDid(t *testing.T) {
	v, u := Verbs(), UCX()
	if u.NIC.HostPostOverhead <= v.NIC.HostPostOverhead {
		t.Fatal("UCX's protocol layer must cost more per post than raw verbs")
	}
	if u.NIC.CQProcessOverhead <= v.NIC.CQProcessOverhead {
		t.Fatal("UCX progress-engine CQ reap must cost more than verbs CQ poll")
	}
	if v.PipelinedFence || !u.PipelinedFence {
		t.Fatal("verbs waits for the write ACK; UCX pipelines the fence send")
	}
	if v.Fabric.LinkGbps != 100 || u.Fabric.LinkGbps != 100 {
		t.Fatal("both testbeds ran 100 Gbps networks")
	}
}

func TestScale(t *testing.T) {
	p := Verbs()
	s := p.Scale(2)
	if s.NIC.HostPostOverhead != 2*p.NIC.HostPostOverhead {
		t.Fatalf("scale(2) post overhead = %v", s.NIC.HostPostOverhead)
	}
	if s.NIC.CQProcessOverhead != 2*p.NIC.CQProcessOverhead {
		t.Fatalf("scale(2) CQ overhead = %v", s.NIC.CQProcessOverhead)
	}
	// MWait wake and fabric are architectural, not noise-scaled.
	if s.NIC.MWaitWake != p.NIC.MWaitWake {
		t.Fatal("MWait wake should not scale")
	}
	if s.Fabric.LinkGbps != p.Fabric.LinkGbps {
		t.Fatal("fabric should not scale")
	}
	// Identity scale changes nothing.
	id := p.Scale(1)
	if id.NIC.HostPostOverhead != p.NIC.HostPostOverhead {
		t.Fatal("scale(1) must be identity")
	}
}

func TestProfileTimesArePositive(t *testing.T) {
	for _, p := range []Profile{Verbs(), UCX()} {
		for name, v := range map[string]sim.Time{
			"HostPostOverhead":       p.NIC.HostPostOverhead,
			"HostCompletionOverhead": p.NIC.HostCompletionOverhead,
			"CQProcessOverhead":      p.NIC.CQProcessOverhead,
			"SendPacketProc":         p.NIC.SendPacketProc,
			"RecvPacketProc":         p.NIC.RecvPacketProc,
			"LookupLatency":          p.NIC.LookupLatency,
			"PollInterval":           p.NIC.PollInterval,
			"MWaitWake":              p.NIC.MWaitWake,
			"RegistrationBase":       p.NIC.RegistrationBase,
		} {
			if v <= 0 {
				t.Errorf("%s.%s = %v, want positive", p.Name, name, v)
			}
		}
		if err := p.Fabric.Validate(); err != nil {
			t.Errorf("%s fabric: %v", p.Name, err)
		}
	}
}
