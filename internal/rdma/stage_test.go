package rdma

import (
	"fmt"
	"strings"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// placeThree places three endpoints on one engine with InitEndpoints,
// node 2's NIC with the profile prof, and returns them with the panic
// InitEndpoints raised, if any.
func placeThree(t *testing.T, prof nic.Profile) (eps []*Endpoint, msg string) {
	t.Helper()
	eng := sim.NewEngine(1)
	net, err := fabric.New(eng, topology.NewSingleSwitch(3), fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nics := make([]*nic.NIC, 3)
	eps = make([]*Endpoint, 3)
	for node := range nics {
		p := nic.DefaultProfile()
		if node == 2 {
			p = prof
		}
		nics[node] = nic.New(eng, net, node, pcie.Gen4x16(), p)
		eps[node] = new(Endpoint)
	}
	defer func() { msg = fmt.Sprint(recover()) }()
	InitEndpoints(eps, nics, DefaultConfig())
	return eps, msg
}

// Endpoints placed on one engine share one record of stages and slabs,
// and placing one whose NIC disagrees with the others on a delay a
// shared stage waits out panics at construction, naming the field: the
// stage would otherwise fire its entries out of order mid-run.
func TestInitEndpointsSharesStagesAndRejectsMismatchedDelays(t *testing.T) {
	eps, msg := placeThree(t, nic.DefaultProfile())
	if msg != "<nil>" {
		t.Fatalf("placing endpoints with one profile panicked: %s", msg)
	}
	if eps[0].sh != eps[1].sh || eps[1].sh != eps[2].sh {
		t.Fatal("endpoints on one engine do not share their stages")
	}
	for _, f := range []struct {
		name string
		bump func(p *nic.Profile)
	}{
		{"HostPostOverhead", func(p *nic.Profile) { p.HostPostOverhead++ }},
		{"PollInterval", func(p *nic.Profile) { p.PollInterval++ }},
		{"CQProcessOverhead", func(p *nic.Profile) { p.CQProcessOverhead++ }},
		{"HostCompletionOverhead", func(p *nic.Profile) { p.HostCompletionOverhead++ }},
	} {
		prof := nic.DefaultProfile()
		f.bump(&prof)
		if _, msg := placeThree(t, prof); !strings.Contains(msg, "node 2") || !strings.Contains(msg, f.name) {
			t.Errorf("node 2's NIC with %s 1 ps longer: panic %q, want one naming node 2 and the field", f.name, msg)
		}
	}
}
