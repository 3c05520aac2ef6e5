package sim

import (
	"fmt"
	"sort"
	"testing"
)

// The sharded engine's contract is byte-identical execution: the same
// model partitioned K ways must pop the same (time, priority) event
// stream as the single-heap reference, finish at the same time, fold the
// same model-state checksum, and run identical daemon ticks at every
// shard count (versus the single heap, ticks may additionally fire only
// within one lookahead window past the final model event). These tests
// drive a synthetic relay model that exercises every mechanism the real
// fabric uses: globally unique (negative) event priorities, per-component
// RNG substreams, cross-shard handoffs at >= lookahead, local events and
// telemetry-style daemon ticks.

// relayLookahead is the minimum cross-node latency in the test model.
const relayLookahead = Time(40)

// relayTickPri mirrors the telemetry sampler's daemon priority: daemons
// sort after model events at equal timestamps, so a tick at t observes
// every model event at t already applied — on a single heap and in every
// sharded round alike.
const relayTickPri = 1 << 20

// popRec is one observed model pop.
type popRec struct {
	at  Time
	pri int
}

// popLog collects a shard's execution stream via the exec observer.
type popLog struct {
	recs []popRec
}

func (l *popLog) ObserveExec(seq uint64, at Time, priority int, label Label) {
	l.recs = append(l.recs, popRec{at, priority})
}

// relayModel is the synthetic workload: nodes fire messages that hop
// between pseudo-random nodes, every message event carrying a globally
// unique negative priority packed from (node, per-node emission counter)
// — the same scheme the fabric uses, and the property that makes the
// cross-shard pop order a pure function of (time, priority).
type relayModel struct {
	nodes int
	group *ShardGroup // nil => single-heap reference
	eng   *Engine     // reference engine when group == nil
	tags  []Tagged    // per-shard (or single) scheduling handle
	seq   []int       // per-node emission counters for unique priorities
	rngs  []*RNG      // per-node RNG substreams (never the engine's)
	hops  int
	// sums holds one checksum accumulator per shard (single-writer, so
	// workers never race); terms are hashed and summed, a commutative
	// fold, so the combined value is independent of the partitioning.
	sums []uint64
}

func newRelayModel(seed uint64, nodes, shards, hops int) *relayModel {
	m := &relayModel{
		nodes: nodes,
		seq:   make([]int, nodes),
		rngs:  make([]*RNG, nodes),
		hops:  hops,
	}
	for n := 0; n < nodes; n++ {
		m.rngs[n] = NewRNG(SeedFor(seed, "node", n))
	}
	if shards <= 0 {
		m.eng = NewEngine(seed)
		m.tags = []Tagged{m.eng.Tag("relay")}
		m.sums = make([]uint64, 1)
	} else {
		m.sums = make([]uint64, shards)
		m.group = NewShardGroup(seed, shards, relayLookahead)
		m.tags = make([]Tagged, shards)
		for i := 0; i < shards; i++ {
			m.tags[i] = m.group.Shard(i).Tag("relay")
		}
	}
	return m
}

func (m *relayModel) engines() []*Engine {
	if m.group == nil {
		return []*Engine{m.eng}
	}
	out := make([]*Engine, m.group.Shards())
	for i := range out {
		out[i] = m.group.Shard(i)
	}
	return out
}

// shardOf maps a node to its contiguous block shard.
func (m *relayModel) shardOf(node int) int {
	if m.group == nil {
		return 0
	}
	return node * m.group.Shards() / m.nodes
}

// uniquePri packs (node, per-node counter) into a globally unique
// negative priority, mirroring the fabric's scheme.
func (m *relayModel) uniquePri(node int) int {
	p := -(1 + m.seq[node]*m.nodes + node)
	m.seq[node]++
	return p
}

// send schedules a receive at node dst at absolute time at, routed
// through the shard group when the sender and receiver live on
// different shards.
func (m *relayModel) send(src, dst int, at Time, hops int) {
	pri := m.uniquePri(src)
	fn := func() { m.receive(dst, hops) }
	if m.group == nil {
		m.tags[0].AtP(at, pri, fn)
		return
	}
	ss, ds := m.shardOf(src), m.shardOf(dst)
	m.group.Post(ss, ds, at, pri, m.tags[ds].Label(), Func(fn))
}

// receive is the per-hop callback: fold model state, do some local work,
// and relay onward.
func (m *relayModel) receive(node, hops int) {
	eng := m.engineFor(node)
	now := eng.Now()
	shard := m.shardOf(node)
	m.sums[shard] += (uint64(now) + 1) * 0x9E3779B97F4A7C15 * uint64(node+1)
	tag := m.tags[shard]
	// Local work at the same node: unique priorities keep the global
	// (time, priority) order total even across shard boundaries.
	if hops%3 == 0 {
		tag.AtP(now+3, m.uniquePri(node), func() {
			m.sums[shard] += uint64(node+1) * 0xBF58476D1CE4E5B9
		})
	}
	if hops <= 0 {
		return
	}
	r := m.rngs[node]
	dst := r.Intn(m.nodes)
	lat := relayLookahead + Time(r.Intn(4))*10
	m.send(node, dst, now+lat, hops-1)
}

func (m *relayModel) engineFor(node int) *Engine {
	if m.group == nil {
		return m.eng
	}
	return m.group.Shard(m.shardOf(node))
}

// start injects the initial messages (pre-run, so same-shard direct
// scheduling is fine everywhere).
func (m *relayModel) start() {
	for n := 0; n < m.nodes; n++ {
		m.send(n, (n*7+3)%m.nodes, Time(100+n), m.hops)
	}
}

// relayResult is everything the equivalence check compares.
type relayResult struct {
	final    Time
	pops     []popRec // merged across shards, sorted by (time, priority)
	ticks    []Time   // distinct daemon tick times, sorted
	executed uint64
	sum      uint64
}

// runRelay builds, instruments, and runs the relay model; shards <= 0
// runs the single-heap reference.
func runRelay(t *testing.T, seed uint64, nodes, shards, hops int) relayResult {
	t.Helper()
	m := newRelayModel(seed, nodes, shards, hops)

	engines := m.engines()
	logs := make([]*popLog, len(engines))
	tickLogs := make([][]Time, len(engines))
	for i, e := range engines {
		logs[i] = &popLog{}
		e.SetExecObserver(logs[i])
		eng, slot := e, i
		var tick func()
		tick = func() {
			tickLogs[slot] = append(tickLogs[slot], eng.Now())
			eng.ScheduleDaemonP(50, relayTickPri, tick)
		}
		eng.ScheduleDaemonP(50, relayTickPri, tick)
	}

	m.start()
	var res relayResult
	if m.group == nil {
		res.final = m.eng.Run()
		res.executed = m.eng.EventsExecuted()
	} else {
		res.final = m.group.Run()
		res.executed = m.group.TotalExecuted()
		for i, e := range engines {
			if got := e.Now(); got != res.final {
				t.Fatalf("shards=%d: shard %d clock %v not synced to final time %v", shards, i, got, res.final)
			}
		}
	}
	for _, s := range m.sums {
		res.sum += s
	}

	for _, l := range logs {
		res.pops = append(res.pops, l.recs...)
	}
	sort.Slice(res.pops, func(a, b int) bool {
		if res.pops[a].at != res.pops[b].at {
			return res.pops[a].at < res.pops[b].at
		}
		return res.pops[a].pri < res.pops[b].pri
	})

	seen := map[Time]bool{}
	for _, tl := range tickLogs {
		for _, tt := range tl {
			if seen[tt] {
				continue
			}
			seen[tt] = true
			res.ticks = append(res.ticks, tt)
		}
	}
	sort.Slice(res.ticks, func(a, b int) bool { return res.ticks[a] < res.ticks[b] })
	return res
}

func checkRelayEqual(t *testing.T, shards int, ref, got relayResult) {
	t.Helper()
	if got.final != ref.final {
		t.Errorf("shards=%d: final time %v, reference %v", shards, got.final, ref.final)
	}
	if got.executed != ref.executed {
		t.Errorf("shards=%d: executed %d events, reference %d", shards, got.executed, ref.executed)
	}
	if got.sum != ref.sum {
		t.Errorf("shards=%d: model checksum %#x, reference %#x", shards, got.sum, ref.sum)
	}
	if len(got.pops) != len(ref.pops) {
		t.Fatalf("shards=%d: %d pops, reference %d", shards, len(got.pops), len(ref.pops))
	}
	for i := range got.pops {
		if got.pops[i] != ref.pops[i] {
			t.Fatalf("shards=%d: pop %d = %+v, reference %+v", shards, i, got.pops[i], ref.pops[i])
		}
	}
}

// checkTicksExact asserts two runs executed exactly the same daemon tick
// times — the contract between any two shard counts: the round schedule
// is a pure function of event times, so the tick sets match bytewise.
func checkTicksExact(t *testing.T, shards int, ref, got relayResult) {
	t.Helper()
	if len(got.ticks) != len(ref.ticks) {
		t.Fatalf("shards=%d: %d distinct tick times, shards=1 has %d", shards, len(got.ticks), len(ref.ticks))
	}
	for i := range got.ticks {
		if got.ticks[i] != ref.ticks[i] {
			t.Fatalf("shards=%d: tick %d at %v, shards=1 has %v", shards, i, got.ticks[i], ref.ticks[i])
		}
	}
}

// checkTicksVsSingleHeap asserts the bounded one-sided tick contract a
// sharded run holds against the single-heap reference: every reference
// tick executes at the same time, and any extras fall strictly within
// one lookahead window past the reference's final model event (the last
// round's window may extend that far; see ShardGroup.Run).
func checkTicksVsSingleHeap(t *testing.T, shards int, ref, got relayResult) {
	t.Helper()
	if len(got.ticks) < len(ref.ticks) {
		t.Fatalf("shards=%d: %d distinct tick times, single-heap reference has %d", shards, len(got.ticks), len(ref.ticks))
	}
	for i := range ref.ticks {
		if got.ticks[i] != ref.ticks[i] {
			t.Fatalf("shards=%d: tick %d at %v, single-heap reference %v", shards, i, got.ticks[i], ref.ticks[i])
		}
	}
	for _, tt := range got.ticks[len(ref.ticks):] {
		if tt <= ref.final || tt >= ref.final+relayLookahead {
			t.Fatalf("shards=%d: extra tick at %v outside (%v, %v)", shards, tt, ref.final, ref.final+relayLookahead)
		}
	}
}

// TestShardGroupMatchesSingleHeap is the core determinism contract: the
// same model at any shard count pops the same (time, priority) stream as
// the single-heap engine and finishes at the same time with every shard
// clock synchronized. Daemon ticks are exactly identical between any two
// shard counts; against the single heap they may additionally fire within
// one lookahead window past the final model event, and nowhere else.
func TestShardGroupMatchesSingleHeap(t *testing.T) {
	const (
		seed  = 42
		nodes = 24
		hops  = 40
	)
	ref := runRelay(t, seed, nodes, 0, hops)
	if len(ref.pops) == 0 {
		t.Fatal("reference run executed no events; the model is broken")
	}
	if len(ref.ticks) == 0 {
		t.Fatal("reference run executed no daemon ticks; tick setup is broken")
	}
	base := runRelay(t, seed, nodes, 1, hops)
	checkRelayEqual(t, 1, ref, base)
	checkTicksVsSingleHeap(t, 1, ref, base)
	for _, shards := range []int{2, 3, 4, 8} {
		got := runRelay(t, seed, nodes, shards, hops)
		checkRelayEqual(t, shards, ref, got)
		checkTicksExact(t, shards, base, got)
		checkTicksVsSingleHeap(t, shards, ref, got)
	}
}

// TestShardGroupSeedSensitivity guards against the comparison being
// vacuous: different seeds must produce different streams.
func TestShardGroupSeedSensitivity(t *testing.T) {
	a := runRelay(t, 1, 16, 2, 20)
	b := runRelay(t, 2, 16, 2, 20)
	if a.sum == b.sum {
		t.Fatal("different seeds produced identical checksums; model ignores its RNG")
	}
}

// TestShardGroupPanicPropagates: a model panic on any shard must surface
// from Run on the caller goroutine, exactly like single-heap execution.
func TestShardGroupPanicPropagates(t *testing.T) {
	g := NewShardGroup(7, 4, relayLookahead)
	tagA := g.Shard(0).Tag("a")
	tagB := g.Shard(3).Tag("b")
	// Enough cross-shard traffic to keep 2+ shards active (worker path).
	for i := 0; i < 8; i++ {
		at := Time(10 + i)
		g.Post(0, 3, at+relayLookahead, -(i + 1), tagB.Label(), Func(func() {}))
		tagA.AtP(at, 0, func() {})
	}
	g.Shard(3).Tag("boom").AtP(relayLookahead+12, 5, func() { panic("boom") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected model panic to propagate out of ShardGroup.Run")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	g.Run()
}

// TestShardGroupEmptyRun: a group with no model events returns time zero
// without executing held-back daemons.
func TestShardGroupEmptyRun(t *testing.T) {
	g := NewShardGroup(1, 3, relayLookahead)
	ticked := false
	g.Shard(1).ScheduleDaemonP(5, relayTickPri, func() { ticked = true })
	if got := g.Run(); got != 0 {
		t.Fatalf("empty run returned %v, want 0", got)
	}
	if ticked {
		t.Fatal("daemon executed in a run with no model events")
	}
}

// BenchmarkShardedEngine measures aggregate model events/sec of the
// partitioned engine against the single-heap reference on a fig7-regime
// workload: thousands of nodes, mostly node-local events, periodic
// cross-shard relays, and a large standing population of parked
// timeout-style events (NIC retry timers at scale), which is what makes
// the single heap deep. Sharding wins twice: windows run concurrently on
// multi-core hosts, and each shard's shallower heap does fewer, more
// cache-local sift levels per operation — the second effect is visible
// even on one core. The CI shard-smoke job tabulates the speedup from
// these sub-benchmarks.
func BenchmarkShardedEngine(b *testing.B) {
	for _, shards := range []int{0, 1, 2, 4, 8} {
		name := "single-heap"
		if shards > 0 {
			name = fmt.Sprintf("shards=%d", shards)
		}
		b.Run(name, func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				events += benchRelayOnce(shards)
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// benchRelayOnce runs one bench-scale relay and returns executed events.
func benchRelayOnce(shards int) uint64 {
	const (
		nodes     = 4096
		parked    = 24 // standing far-future timers per node (heap depth)
		localWork = 12 // local events per hop: keeps rounds compute-bound
		hops      = 10
		parkAt    = Time(1 << 40)
	)
	m := newRelayModel(99, nodes, shards, 0)
	for n := 0; n < nodes; n++ {
		tag := m.tags[m.shardOf(n)]
		for i := 0; i < parked; i++ {
			tag.AtP(parkAt+Time(i), m.uniquePri(n), func() {})
		}
	}
	var relay func(node, hop int)
	relay = func(node, hop int) {
		eng := m.engineFor(node)
		now := eng.Now()
		tag := m.tags[m.shardOf(node)]
		for i := 0; i < localWork; i++ {
			tag.AtP(now+Time(1+i), m.uniquePri(node), func() {})
		}
		if hop <= 0 {
			return
		}
		dst := m.rngs[node].Intn(nodes)
		m.sendFn(node, dst, now+relayLookahead, func() { relay(dst, hop-1) })
	}
	for n := 0; n < nodes; n++ {
		node := n
		m.tags[m.shardOf(node)].AtP(Time(1+n%37), m.uniquePri(node), func() { relay(node, hops) })
	}
	if m.group == nil {
		m.eng.Run()
		return m.eng.EventsExecuted()
	}
	m.group.Run()
	return m.group.TotalExecuted()
}

// sendFn posts an arbitrary callback to dst's shard at time at, with a
// fresh unique priority drawn from src's counter.
func (m *relayModel) sendFn(src, dst int, at Time, fn func()) {
	pri := m.uniquePri(src)
	if m.group == nil {
		m.tags[0].AtP(at, pri, fn)
		return
	}
	ss, ds := m.shardOf(src), m.shardOf(dst)
	m.group.Post(ss, ds, at, pri, m.tags[ds].Label(), Func(fn))
}
