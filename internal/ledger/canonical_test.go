package ledger

import (
	"strings"
	"testing"

	"rvma/internal/sim"
)

// canonRelay builds a small cross-shard relay (unique negative priorities
// from per-node counters, per-node RNG substreams, node-local work) on
// either a single-heap engine (shards <= 0) or a ShardGroup, and runs it
// to completion with the given recorder attached first.
func canonRelay(seed uint64, nodes, shards, hops int, attach func(eng *sim.Engine, g *sim.ShardGroup)) {
	const lookahead = sim.Time(40)
	var (
		eng  *sim.Engine
		g    *sim.ShardGroup
		tags []sim.Tagged
	)
	if shards <= 0 {
		eng = sim.NewEngine(seed)
		tags = []sim.Tagged{eng.Tag("relay")}
	} else {
		g = sim.NewShardGroup(seed, shards, lookahead)
		tags = make([]sim.Tagged, shards)
		for i := range tags {
			tags[i] = g.Shard(i).Tag("relay")
		}
	}
	attach(eng, g)

	shardOf := func(node int) int {
		if g == nil {
			return 0
		}
		return node * shards / nodes
	}
	seq := make([]int, nodes)
	pri := func(node int) int {
		p := -(1 + seq[node]*nodes + node)
		seq[node]++
		return p
	}
	rngs := make([]*sim.RNG, nodes)
	for n := range rngs {
		rngs[n] = sim.NewRNG(sim.SeedFor(seed, "node", n))
	}
	var recv func(node, hop int)
	send := func(src, dst int, at sim.Time, hop int) {
		p := pri(src)
		fn := func() { recv(dst, hop) }
		if g == nil {
			tags[0].AtP(at, p, fn)
			return
		}
		g.Post(shardOf(src), shardOf(dst), at, p, tags[shardOf(dst)].Label(), sim.Func(fn))
	}
	recv = func(node, hop int) {
		tag := tags[shardOf(node)]
		now := tag.Now()
		tag.AtP(now+2, pri(node), func() {})
		if hop <= 0 {
			return
		}
		r := rngs[node]
		send(node, r.Intn(nodes), now+lookahead+sim.Time(r.Intn(3))*7, hop-1)
	}
	for n := 0; n < nodes; n++ {
		send(n, (n*5+1)%nodes, sim.Time(50+n), hops)
	}
	if g == nil {
		eng.Run()
	} else {
		g.Run()
	}
}

// TestCanonicalChainShardInvariant is the ledger half of the determinism
// contract: the canonical chain head, epoch layout, event count, final
// time, label table, and full-resolution window must be identical whether
// the model ran on one heap or any number of shards.
func TestCanonicalChainShardInvariant(t *testing.T) {
	run := func(shards int) *Ledger {
		r := NewCanonicalRecorder(Options{EpochEvents: 64})
		r.SetWindow(10, 40)
		canonRelay(7, 20, shards, 30, func(eng *sim.Engine, g *sim.ShardGroup) {
			if g != nil {
				r.AttachGroup(g)
			} else {
				r.Attach(eng)
			}
		})
		return r.Finalize()
	}
	ref := run(0)
	if ref.Events == 0 {
		t.Fatal("reference run folded no records")
	}
	if len(ref.Epochs) < 2 {
		t.Fatalf("want multiple epochs to compare, got %d", len(ref.Epochs))
	}
	if ref.Mode != ModeCanonical {
		t.Fatalf("mode = %q, want %q", ref.Mode, ModeCanonical)
	}
	for _, shards := range []int{1, 2, 4, 5} {
		got := run(shards)
		if got.ChainHead != ref.ChainHead {
			t.Errorf("shards=%d: chain head %s, reference %s", shards, got.ChainHead, ref.ChainHead)
		}
		if got.Events != ref.Events {
			t.Errorf("shards=%d: %d events, reference %d", shards, got.Events, ref.Events)
		}
		if got.FinalTimePS != ref.FinalTimePS {
			t.Errorf("shards=%d: final time %d, reference %d", shards, got.FinalTimePS, ref.FinalTimePS)
		}
		ga, _ := got.Marshal()
		ra, _ := ref.Marshal()
		if string(ga) != string(ra) {
			t.Errorf("shards=%d: serialized ledger differs from reference", shards)
		}
		d := Compare(got, ref)
		if !d.Identical {
			t.Errorf("shards=%d: Compare reports divergence: %s", shards, d.Reason)
		}
	}
}

// TestCanonicalSeedSensitivity guards against a vacuous chain: different
// seeds must yield different chain heads.
func TestCanonicalSeedSensitivity(t *testing.T) {
	run := func(seed uint64) string {
		r := NewCanonicalRecorder(Options{})
		canonRelay(seed, 12, 3, 15, func(_ *sim.Engine, g *sim.ShardGroup) { r.AttachGroup(g) })
		return r.Finalize().ChainHead
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced the same canonical chain head")
	}
}

// TestCompareRefusesModeMismatch: a raw ledger recorded by an earlier
// build and a canonical one must never be diffed as if comparable, and the
// raw one fails CheckCanonical.
func TestCompareRefusesModeMismatch(t *testing.T) {
	canon := NewCanonicalRecorder(Options{}).Finalize()
	raw := *canon
	raw.Mode = ""
	d := Compare(&raw, canon)
	if d.Identical || d.Comparable {
		t.Fatalf("raw vs canonical compared as %+v; want incomparable", d)
	}
	if err := canon.CheckCanonical(); err != nil {
		t.Fatalf("canonical ledger rejected: %v", err)
	}
	if err := raw.CheckCanonical(); err == nil || !strings.Contains(err.Error(), "re-record") {
		t.Fatalf("raw ledger: CheckCanonical = %v, want a re-record error", err)
	}
}
