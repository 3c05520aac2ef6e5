package sim_test

import (
	"testing"

	"rvma/internal/ledger"
	"rvma/internal/sim"
)

// FuzzShardedEngine cross-checks the lookahead-parallel engine against
// the single-heap reference under fuzzed workloads: the same relay model
// (per-node RNG substreams, globally unique negative priorities,
// cross-shard handoffs at >= lookahead, local follow-up events) runs
// once on one heap and once partitioned, each with a canonical execution
// ledger attached. The canonical chain head hashes every model pop's
// (time, priority, label) in partition-invariant order, so any divergence
// in pop order, count, or timing — however deep in the run — collapses
// into a one-line digest mismatch. This file lives in package sim_test so
// it can import the ledger without a cycle.
func FuzzShardedEngine(f *testing.F) {
	f.Add(uint64(42), byte(24), byte(4), byte(30))
	f.Add(uint64(7), byte(2), byte(2), byte(1))
	f.Add(uint64(1), byte(13), byte(8), byte(17))
	f.Add(uint64(99), byte(5), byte(3), byte(0))
	// Radix-heap shapes: hop delays spread over one to seven more digits
	// of the queue's times, many digits of one level at a time, and a
	// second wave posted behind a shard run's daemon tail, which rebases
	// every shard's queue across levels.
	f.Add(uint64(42), byte(12), byte(4), byte(1<<5|20))
	f.Add(uint64(5), byte(6), byte(2), byte(3<<5|9))
	f.Add(uint64(77), byte(16), byte(8), byte(7<<5|12))
	f.Add(uint64(8), byte(3), byte(1), byte(2<<5|31))

	f.Fuzz(func(t *testing.T, seed uint64, nodesB, shardsB, hopsB byte) {
		nodes := 2 + int(nodesB)%23  // 2..24
		shards := 1 + int(shardsB)%8 // 1..8
		hops := int(hopsB) % 32
		spread := uint(hopsB >> 5) // 0..7

		ref, refLed := fuzzRelay(seed, nodes, 0, hops, spread)
		got, gotLed := fuzzRelay(seed, nodes, shards, hops, spread)
		if gotLed.ChainHead != refLed.ChainHead {
			t.Fatalf("seed=%d nodes=%d shards=%d hops=%d spread=%d: chain head %s, single-heap %s",
				seed, nodes, shards, hops, spread, gotLed.ChainHead, refLed.ChainHead)
		}
		if gotLed.Events != refLed.Events {
			t.Fatalf("ledger recorded %d events, single-heap %d", gotLed.Events, refLed.Events)
		}
		if got != ref {
			t.Fatalf("final time %v, single-heap %v", got, ref)
		}
		if gotLed.FinalTimePS != refLed.FinalTimePS {
			t.Fatalf("ledger final time %d, single-heap %d", gotLed.FinalTimePS, refLed.FinalTimePS)
		}
	})
}

// fzLookahead is the minimum cross-node latency of the fuzz relay.
const fzLookahead = sim.Time(40)

// fzModel is a minimal relay over the public API: messages hop between
// pseudo-random nodes, each event carrying a globally unique negative
// priority packed from (node, per-node counter) — the fabric's scheme.
// A hop's delay past the lookahead is a multiple of 16^spread ps, so a
// spread above 0 moves the relay's times across that many more digits.
type fzModel struct {
	nodes  int
	shards int
	spread uint
	group  *sim.ShardGroup // nil => single heap
	eng    *sim.Engine
	tags   []sim.Tagged
	seq    []int
	rngs   []*sim.RNG
}

func (m *fzModel) shardOf(node int) int {
	if m.group == nil {
		return 0
	}
	return node * m.shards / m.nodes
}

func (m *fzModel) engineFor(node int) *sim.Engine {
	if m.group == nil {
		return m.eng
	}
	return m.group.Shard(m.shardOf(node))
}

func (m *fzModel) pri(node int) int {
	p := -(1 + m.seq[node]*m.nodes + node)
	m.seq[node]++
	return p
}

func (m *fzModel) send(src, dst int, at sim.Time, hops int) {
	pri := m.pri(src)
	fn := func() { m.receive(dst, hops) }
	if m.group == nil {
		m.tags[0].AtP(at, pri, fn)
		return
	}
	m.group.Post(m.shardOf(src), m.shardOf(dst), at, pri, m.tags[m.shardOf(dst)].Label(), sim.Func(fn))
}

func (m *fzModel) receive(node, hops int) {
	eng := m.engineFor(node)
	now := eng.Now()
	tag := m.tags[m.shardOf(node)]
	if m.spread > 0 {
		// A reader half a lookahead later: after the last model event, a
		// shard run's final window runs it, and syncClock moves the
		// clock back behind it.
		eng.ScheduleDaemonP(fzLookahead/2, 1<<30, func() {})
	}
	// Same-node churn: every third hop, a local follow-up with a unique
	// priority so ties never exist.
	if hops%3 == 0 {
		tag.AtP(now+2, m.pri(node), func() {})
	}
	if hops <= 0 {
		return
	}
	r := m.rngs[node]
	dst := r.Intn(m.nodes)
	m.send(node, dst, now+fzLookahead+sim.Time(r.Intn(5))*7<<(4*m.spread), hops-1)
}

// fuzzRelay builds and runs the relay at the given shard count (0 =
// single heap) with a canonical ledger attached, returning the final
// model time and the finalized ledger. With a spread above 0 every
// receive also schedules a daemon, and a second wave of messages runs
// after the first: a shard run's final window runs daemons past the last
// model event, so the second wave lands behind them.
func fuzzRelay(seed uint64, nodes, shards, hops int, spread uint) (sim.Time, *ledger.Ledger) {
	m := &fzModel{
		nodes:  nodes,
		shards: shards,
		spread: spread,
		seq:    make([]int, nodes),
		rngs:   make([]*sim.RNG, nodes),
	}
	for n := 0; n < nodes; n++ {
		m.rngs[n] = sim.NewRNG(sim.SeedFor(seed, "node", n))
	}
	rec := ledger.NewCanonicalRecorder(ledger.Options{})
	var final sim.Time
	if shards <= 0 {
		m.eng = sim.NewEngine(seed)
		m.tags = []sim.Tagged{m.eng.Tag("relay")}
		rec.Attach(m.eng)
	} else {
		m.group = sim.NewShardGroup(seed, shards, fzLookahead)
		m.tags = make([]sim.Tagged, shards)
		for i := range m.tags {
			m.tags[i] = m.group.Shard(i).Tag("relay")
		}
		rec.AttachGroup(m.group)
	}
	run := func() sim.Time {
		if m.group == nil {
			return m.eng.Run()
		}
		return m.group.Run()
	}
	for n := 0; n < nodes; n++ {
		m.send(n, (n*5+1)%nodes, sim.Time(50+n), hops)
	}
	if spread > 0 {
		first := run()
		for n := 0; n < nodes; n++ {
			m.send(n, (n*3+2)%nodes, first+fzLookahead+sim.Time(n)<<(4*spread), hops)
		}
	}
	final = run()
	return final, rec.Finalize()
}
