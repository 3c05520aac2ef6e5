package fabric

import (
	"testing"

	"rvma/internal/sim"
	"rvma/internal/topology"
)

func TestParseFaultPlan(t *testing.T) {
	cases := []struct {
		in   string
		want FaultPlan
	}{
		{"drop=0.05", FaultPlan{DropRate: 0.05}},
		{"drop=0.1,burst=4", FaultPlan{DropRate: 0.1, BurstLen: 4}},
		{"window=3:10us:20us:0.5", FaultPlan{
			Windows: []FaultWindow{{Node: 3, From: 10 * sim.Microsecond, To: 20 * sim.Microsecond, DropRate: 0.5}},
		}},
		{"drop=0.01,window=all:1ms:2ms:1", FaultPlan{
			DropRate: 0.01,
			Windows:  []FaultWindow{{Node: -1, From: sim.Millisecond, To: 2 * sim.Millisecond, DropRate: 1}},
		}},
	}
	for _, c := range cases {
		got, err := ParseFaultPlan(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if got.DropRate != c.want.DropRate || got.BurstLen != c.want.BurstLen ||
			len(got.Windows) != len(c.want.Windows) {
			t.Fatalf("%q -> %+v, want %+v", c.in, got, c.want)
		}
		for i, w := range got.Windows {
			if w != c.want.Windows[i] {
				t.Fatalf("%q window %d = %+v, want %+v", c.in, i, w, c.want.Windows[i])
			}
		}
	}
	if p, err := ParseFaultPlan(""); err != nil || p != nil {
		t.Fatalf("empty spec -> (%v, %v), want (nil, nil)", p, err)
	}
	for _, bad := range []string{"drop=1.5", "drop=x", "burst=-1", "window=3:10us:5us:0.5", "window=3:10us", "frob=1"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Fatalf("%q parsed without error", bad)
		}
	}
}

func TestFaultPlanValidate(t *testing.T) {
	good := []*FaultPlan{
		nil,
		{},
		{DropRate: 1}, // total blackout is a legal plan
		{DropRate: 0.5, BurstLen: 3},
		{Windows: []FaultWindow{{Node: -1, From: 0, To: sim.Second, DropRate: 1}}},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
	}
	bad := []*FaultPlan{
		{DropRate: -0.1},
		{DropRate: 1.1},
		{BurstLen: -1},
		{Windows: []FaultWindow{{Node: -2, DropRate: 0.5}}},
		{Windows: []FaultWindow{{Node: 0, From: 2, To: 1, DropRate: 0.5}}},
		{Windows: []FaultWindow{{Node: 0, From: 0, To: 1, DropRate: 2}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("%+v validated", p)
		}
	}
}

// sendPackets pushes n single-packet messages 0 -> 1 and returns the
// network after the run.
func sendPackets(t *testing.T, cfg Config, n int, seed uint64) *Network {
	t.Helper()
	eng := sim.NewEngine(seed)
	net, err := New(eng, topology.NewSingleSwitch(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.AttachHost(0, func(*Packet) {})
	net.AttachHost(1, func(*Packet) {})
	for i := 0; i < n; i++ {
		pkt := &Packet{Src: 0, Dst: 1, Size: 256}
		eng.Schedule(sim.Time(i)*sim.Microsecond, func() { net.Inject(pkt) })
	}
	eng.Run()
	return net
}

func TestBlackoutDropsEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &FaultPlan{DropRate: 1}
	net := sendPackets(t, cfg, 50, 1)
	if net.TotalStats().PacketsDropped != 50 {
		t.Fatalf("dropped %d of 50 under blackout", net.TotalStats().PacketsDropped)
	}
	if net.TotalStats().BytesDropped != 50*256 {
		t.Fatalf("bytes dropped = %d, want %d", net.TotalStats().BytesDropped, 50*256)
	}
}

func TestBurstLossDropsRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &FaultPlan{DropRate: 0.05, BurstLen: 4}
	net := sendPackets(t, cfg, 400, 3)
	d := net.TotalStats().PacketsDropped
	if d == 0 {
		t.Fatal("burst plan dropped nothing")
	}
	// Every loss event consumes a whole burst (no later draw can cut one
	// short on a steady single-destination stream) unless the stream ends
	// first, so the drops plus the burst still owed are a multiple of the
	// burst length.
	if owed := uint64(net.burstLeft[1]); (d+owed)%4 != 0 {
		t.Fatalf("dropped %d with %d burst drops owed, want a multiple of burst length 4", d, owed)
	}
}

func TestDegradationWindowOnlyDropsInside(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &FaultPlan{Windows: []FaultWindow{{
		Node: 1, From: 100 * sim.Microsecond, To: 200 * sim.Microsecond, DropRate: 1,
	}}}
	// 400 packets injected 1 us apart: those delivered inside the window
	// all die, everything outside survives.
	net := sendPackets(t, cfg, 400, 1)
	d := net.TotalStats().PacketsDropped
	if d == 0 || d > 110 {
		t.Fatalf("dropped %d, want roughly the ~100 packets delivered inside the window", d)
	}
}

func TestWindowOnOtherNodeIsHarmless(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &FaultPlan{Windows: []FaultWindow{{
		Node: 0, From: 0, To: sim.Second, DropRate: 1, // traffic goes to node 1
	}}}
	net := sendPackets(t, cfg, 100, 1)
	if net.TotalStats().PacketsDropped != 0 {
		t.Fatalf("dropped %d packets destined to an unaffected node", net.TotalStats().PacketsDropped)
	}
}

// TestFaultFreeRunsUnperturbed: enabling the faults plumbing with an
// all-zero plan must not consume RNG draws or change delivery.
func TestFaultFreeRunsUnperturbed(t *testing.T) {
	base := sendPackets(t, DefaultConfig(), 200, 9)
	cfg := DefaultConfig()
	cfg.Faults = &FaultPlan{} // present but inert
	with := sendPackets(t, cfg, 200, 9)
	if base.TotalStats().PacketsDelivered != with.TotalStats().PacketsDelivered ||
		with.TotalStats().PacketsDropped != 0 {
		t.Fatalf("inert plan perturbed the run: %+v vs %+v", base.TotalStats(), with.TotalStats())
	}
}
