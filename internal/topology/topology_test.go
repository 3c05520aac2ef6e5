package topology

import (
	"slices"
	"testing"
	"testing/quick"

	"rvma/internal/sim"
)

// allTestTopologies returns a representative instance of every family.
func allTestTopologies() []Topology {
	return []Topology{
		NewSingleSwitch(2),
		NewSingleSwitch(16),
		NewTorus3D(4, 4, 4, 2),
		NewTorus3D(2, 3, 1, 4), // exercises size-2 and size-1 dimensions
		NewFatTree(4),
		NewFatTree(8),
		NewDragonfly(4, 2, 2),
		NewDragonfly(8, 4, 4),
		NewHyperX(4, 4, 2),
		NewHyperX(3, 5, 1),
	}
}

func TestValidateAll(t *testing.T) {
	for _, topo := range allTestTopologies() {
		if err := Validate(topo); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

func TestAllPairsDeterministicRoutesDeliver(t *testing.T) {
	for _, topo := range allTestTopologies() {
		n := topo.NumNodes()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				if _, err := TraceRoute(topo, s, d, 32); err != nil {
					t.Fatalf("%s: %v", topo.Name(), err)
				}
			}
		}
	}
}

// Property: every candidate port (not just the first) makes progress — a
// greedy walk that always picks the *last* candidate still delivers.
func TestAdaptiveCandidatesDeliver(t *testing.T) {
	for _, topo := range allTestTopologies() {
		n := topo.NumNodes()
		var buf []int
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				sw, _ := topo.HostPort(s)
				for hops := 0; ; hops++ {
					if hops > 64 {
						t.Fatalf("%s: worst-candidate walk %d->%d looped", topo.Name(), s, d)
					}
					buf = topo.Candidates(sw, d, buf[:0])
					if len(buf) == 0 {
						t.Fatalf("%s: no candidates at switch %d for dst %d", topo.Name(), sw, d)
					}
					p := topo.Ports(sw)[buf[len(buf)-1]]
					if p.Kind == HostPort {
						if p.Node != d {
							t.Fatalf("%s: delivered to %d, want %d", topo.Name(), p.Node, d)
						}
						break
					}
					sw = p.PeerSwitch
				}
			}
		}
	}
}

func TestTorusDimensionOrderPathLength(t *testing.T) {
	topo := NewTorus3D(4, 4, 4, 1)
	// node 0 at switch (0,0,0); destination switch (2,3,1) = node index:
	dst := topo.switchAt(2, 3, 1)
	path, err := TraceRoute(topo, 0, dst, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Shortest hops: x: 2 (forward), y: 1 (backward wrap), z: 1 => 4 switch-
	// to-switch hops => path visits 5 switches.
	if len(path) != 5 {
		t.Fatalf("path %v has %d switches, want 5", path, len(path))
	}
}

func TestTorusWrapsShorterDirection(t *testing.T) {
	topo := NewTorus3D(8, 1, 1, 1)
	// From x=0 to x=6: backward wrap (2 hops) beats forward (6 hops).
	path, err := TraceRoute(topo, 0, 6, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 {
		t.Fatalf("wrap route %v has %d switches, want 3", path, len(path))
	}
}

func TestFatTreeStructure(t *testing.T) {
	ft := NewFatTree(4)
	if ft.NumNodes() != 16 {
		t.Fatalf("k=4 fat-tree nodes = %d, want 16", ft.NumNodes())
	}
	if ft.NumSwitches() != 20 { // 8 edge + 8 agg + 4 core
		t.Fatalf("k=4 fat-tree switches = %d, want 20", ft.NumSwitches())
	}
	// Same-edge traffic stays on one switch.
	path, err := TraceRoute(ft, 0, 1, 8)
	if err != nil || len(path) != 1 {
		t.Fatalf("same-edge path = %v (err %v), want single switch", path, err)
	}
	// Cross-pod traffic takes edge-agg-core-agg-edge: 5 switches.
	path, err = TraceRoute(ft, 0, 15, 8)
	if err != nil || len(path) != 5 {
		t.Fatalf("cross-pod path = %v (err %v), want 5 switches", path, err)
	}
}

func TestFatTreeUpPathSpread(t *testing.T) {
	// Different destinations should hash onto different up ports at the edge.
	ft := NewFatTree(8)
	var buf []int
	seen := map[int]bool{}
	sw, _ := ft.HostPort(0)
	for d := ft.NumNodes() / 2; d < ft.NumNodes(); d++ {
		buf = ft.Candidates(sw, d, buf[:0])
		seen[buf[0]] = true
	}
	if len(seen) != 4 { // k/2 = 4 up ports
		t.Fatalf("deterministic up-path spread = %d ports, want 4", len(seen))
	}
}

func TestDragonflyStructure(t *testing.T) {
	d := NewDragonfly(4, 2, 2)
	if d.G != 9 {
		t.Fatalf("groups = %d, want 9", d.G)
	}
	if d.NumNodes() != 9*4*2 {
		t.Fatalf("nodes = %d, want 72", d.NumNodes())
	}
	// Each switch has p + (a-1) + h = 2 + 3 + 2 = 7 ports.
	if got := len(d.Ports(0)); got != 7 {
		t.Fatalf("ports per switch = %d, want 7", got)
	}
}

func TestDragonflyMinimalHops(t *testing.T) {
	d := NewDragonfly(4, 2, 2)
	// Max minimal path: local + global + local = 3 switch hops (4 switches).
	diam, err := Diameter(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diam > 3 {
		t.Fatalf("dragonfly minimal diameter = %d switch-hops, want <= 3", diam)
	}
}

func TestDragonflyGlobalChannelsOnePerGroupPair(t *testing.T) {
	d := NewDragonfly(4, 2, 2)
	// Count global channels between each pair of groups; must be exactly 1.
	count := map[[2]int]int{}
	for sw := 0; sw < d.NumSwitches(); sw++ {
		g := d.group(sw)
		for _, p := range d.Ports(sw) {
			if p.Kind != SwitchPort {
				continue
			}
			pg := d.group(p.PeerSwitch)
			if pg == g {
				continue
			}
			key := [2]int{min(g, pg), max(g, pg)}
			count[key]++
		}
	}
	want := d.G * (d.G - 1) / 2
	if len(count) != want {
		t.Fatalf("connected group pairs = %d, want %d", len(count), want)
	}
	for pair, c := range count {
		if c != 2 { // counted once from each end
			t.Fatalf("group pair %v has %d channel endpoints, want 2", pair, c)
		}
	}
}

func TestDragonflyNonMinimalCandidates(t *testing.T) {
	d := NewDragonfly(4, 2, 2)
	src, dst := 0, d.NumNodes()-1
	sw, _ := d.HostPort(src)
	var buf []int
	nm := d.NonMinimalCandidates(sw, dst, buf)
	// Router 0 owns h=2 global channels; at most one leads to the dest
	// group, so at least one detour candidate must exist.
	if len(nm) == 0 {
		t.Fatal("expected non-minimal candidates from source group")
	}
	// All candidates must be global ports leading to a non-destination group.
	dsw, _ := d.HostPort(dst)
	for _, pi := range nm {
		p := d.Ports(sw)[pi]
		if p.Kind != SwitchPort {
			t.Fatal("non-minimal candidate is not a switch port")
		}
		if d.group(p.PeerSwitch) == d.group(dsw) || d.group(p.PeerSwitch) == d.group(sw) {
			t.Fatal("non-minimal candidate is not a detour")
		}
	}
	// In-group destinations have no detours.
	if got := d.NonMinimalCandidates(sw, 1, buf[:0]); len(got) != 0 {
		t.Fatalf("same-group non-minimal candidates = %v, want none", got)
	}
}

// A Valiant detour followed by minimal routing must still deliver.
func TestDragonflyValiantDelivers(t *testing.T) {
	d := NewDragonfly(4, 2, 2)
	var buf []int
	for src := 0; src < d.NumNodes(); src += 7 {
		for dst := 0; dst < d.NumNodes(); dst += 5 {
			if src == dst {
				continue
			}
			sw, _ := d.HostPort(src)
			nm := d.NonMinimalCandidates(sw, dst, buf[:0])
			if len(nm) == 0 {
				continue
			}
			// Take the detour, then route minimally.
			sw2 := d.Ports(sw)[nm[0]].PeerSwitch
			hops := 1
			for {
				if hops > 16 {
					t.Fatalf("valiant walk %d->%d looped", src, dst)
				}
				cands := d.Candidates(sw2, dst, nil)
				p := d.Ports(sw2)[cands[0]]
				if p.Kind == HostPort {
					if p.Node != dst {
						t.Fatalf("valiant delivered to %d, want %d", p.Node, dst)
					}
					break
				}
				sw2 = p.PeerSwitch
				hops++
			}
		}
	}
}

func TestHyperXDiameterTwo(t *testing.T) {
	h := NewHyperX(4, 4, 2)
	diam, err := Diameter(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diam > 2 {
		t.Fatalf("hyperx diameter = %d, want <= 2", diam)
	}
}

func TestHyperXDOROrdersDim1First(t *testing.T) {
	h := NewHyperX(4, 4, 1)
	// src switch (0,0) = node 0; dst switch (2,3) = node 11.
	path, err := TraceRoute(h, 0, 11, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 {
		t.Fatalf("path %v length = %d switches, want 3", path, len(path))
	}
	// DOR corrects dimension 1 first: intermediate switch is (2, 0) = 8.
	if path[1] != 8 {
		t.Fatalf("DOR intermediate = switch %d, want 8 (row corrected first)", path[1])
	}
}

func TestHyperXAdaptiveHasTwoChoicesOffAxis(t *testing.T) {
	h := NewHyperX(4, 4, 1)
	sw, _ := h.HostPort(0)
	cands := h.Candidates(sw, 11, nil)
	if len(cands) != 2 {
		t.Fatalf("off-axis candidates = %d, want 2", len(cands))
	}
	cands = h.Candidates(sw, 3, nil) // same row: single choice
	if len(cands) != 1 {
		t.Fatalf("same-row candidates = %d, want 1", len(cands))
	}
}

func TestForNodeCount(t *testing.T) {
	for _, kind := range Kinds() {
		for _, n := range []int{1, 8, 100, 1024} {
			topo, err := ForNodeCount(kind, n)
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, n, err)
			}
			if topo.NumNodes() < n {
				t.Fatalf("%s: ForNodeCount(%d) built only %d nodes", kind, n, topo.NumNodes())
			}
			if err := Validate(topo); err != nil {
				t.Fatalf("%s/%d: %v", kind, n, err)
			}
		}
	}
	if _, err := ForNodeCount("nosuch", 4); err == nil {
		t.Fatal("unknown kind should error")
	}
	if _, err := ForNodeCount(KindFatTree, 0); err == nil {
		t.Fatal("zero nodes should error")
	}
}

// Property: for random (small) dragonfly parameters, validation passes and
// random pairs route within 3 switch-hops.
func TestDragonflyProperty(t *testing.T) {
	f := func(aRaw, pRaw, hRaw uint8) bool {
		a := int(aRaw)%4 + 2
		p := int(pRaw)%3 + 1
		h := int(hRaw)%3 + 1
		d := NewDragonfly(a, p, h)
		if Validate(d) != nil {
			return false
		}
		rng := sim.NewRNG(uint64(a*100 + p*10 + h))
		for i := 0; i < 20; i++ {
			s, dd := rng.Intn(d.NumNodes()), rng.Intn(d.NumNodes())
			if s == dd {
				continue
			}
			path, err := TraceRoute(d, s, dd, 8)
			if err != nil || len(path)-1 > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestCandidatesAppendIntoCallerBuffer pins the contract the fabric's
// reused route buffers rely on: for every family, Candidates and
// NonMinimalCandidates append into a caller buffer with spare capacity
// without allocating, and return the same ports as a nil-buffer call.
func TestCandidatesAppendIntoCallerBuffer(t *testing.T) {
	for _, kind := range Kinds() {
		topo, err := ForNodeCount(kind, 64)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		nonMin, _ := topo.(NonMinimalRouter)
		buf := make([]int, 0, 64)
		check := func(what string, sw, dst int, got, want []int) {
			if !slices.Equal(got, want) {
				t.Errorf("%s: %s(sw%d, node %d) into a buffer = %v, with nil = %v", kind, what, sw, dst, got, want)
			}
			if len(got) > 0 && &got[0] != &buf[:1][0] {
				t.Errorf("%s: %s(sw%d, node %d) did not append into the caller buffer", kind, what, sw, dst)
			}
		}
		for sw := 0; sw < topo.NumSwitches(); sw++ {
			for dst := 0; dst < topo.NumNodes(); dst++ {
				check("Candidates", sw, dst, topo.Candidates(sw, dst, buf[:0]), topo.Candidates(sw, dst, nil))
				if nonMin != nil {
					check("NonMinimalCandidates", sw, dst, nonMin.NonMinimalCandidates(sw, dst, buf[:0]),
						nonMin.NonMinimalCandidates(sw, dst, nil))
				}
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			for sw := 0; sw < topo.NumSwitches(); sw++ {
				for dst := 0; dst < topo.NumNodes(); dst++ {
					buf = topo.Candidates(sw, dst, buf[:0])
					if nonMin != nil {
						buf = nonMin.NonMinimalCandidates(sw, dst, buf[:0])
					}
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per all-pairs sweep into a caller buffer, want 0", kind, allocs)
		}
	}
}
