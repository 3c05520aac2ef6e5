package rvma

import (
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// retrier is a NackHandler that puts a NACKed put again after a fixed
// backoff, as the motif transport does, and counts what it observes.
type retrier struct {
	ep           *Endpoint
	vaddr        VAddr
	sent, nacked int
}

func (r *retrier) Sent(int) { r.sent++ }

func (r *retrier) Nacked(dst, size int) {
	r.nacked++
	r.ep.Engine().Schedule(2*sim.Microsecond, func() { r.ep.PutN(dst, r.vaddr, 0, size) })
}

// freePuts walks ep's free list, failing t if an op on it has a
// reference left, and returns its length.
func freePuts(t *testing.T, ep *Endpoint) int {
	t.Helper()
	n := 0
	if ep.pipe == nil {
		return 0
	}
	for op := ep.pipe.freePuts; op != nil; op = op.next {
		if op.refs != 0 || !op.pooled {
			t.Fatalf("node %d: a put on the free list has %d references (pooled %v)", ep.Node(), op.refs, op.pooled)
		}
		n++
	}
	return n
}

// TestNackingBurstRecyclesAfterTheLastNack puts a burst of 4-packet
// messages into a depth-1 mailbox, so most draw a NACK per rejected
// packet and go again after a backoff. A put whose packets were all
// rejected is last reached by its final NACK, at the initiator, after its
// local completion, so this is the path that recycles an op on a NACK.
// Every message must be placed exactly once, every put must complete
// locally, and once the run drains every one of the burst's ops must be
// back on the free list with no reference left.
func TestNackingBurstRecyclesAfterTheLastNack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CarryData = false
	fcfg := fabric.DefaultConfig()
	eng, src, dst := pair(t, cfg, fcfg, 1)
	const box = VAddr(7)
	const messages = 64
	size := 4 * fcfg.MTU
	win, err := dst.InitWindow(box, 1, EpochOps)
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		if _, err := win.PostBuffer(size); err != nil {
			t.Fatal(err)
		}
	}
	post()
	completions := 0
	win.SetCompletionHandler(func(b *Buffer) {
		completions++
		if err := win.Release(b); err != nil {
			t.Fatal(err)
		}
		post()
	})
	r := &retrier{ep: src, vaddr: box}
	src.SetNackHandler(r)
	eng.Schedule(0, func() {
		for i := 0; i < messages; i++ {
			src.PutN(1, box, 0, size)
		}
	})
	eng.Run()

	if r.nacked == 0 {
		t.Fatal("the burst drew no NACK: nothing exercised recycling on a NACK")
	}
	if completions != messages || dst.Stats.PutsPlaced != messages {
		t.Fatalf("%d messages: %d completions, %d placed; want each placed exactly once",
			messages, completions, dst.Stats.PutsPlaced)
	}
	if want := messages + r.nacked; r.sent != want || src.Stats.PutsInitiated != uint64(want) {
		t.Fatalf("%d puts completed locally and %d initiated, want %d (%d messages + %d retries)",
			r.sent, src.Stats.PutsInitiated, want, messages, r.nacked)
	}
	// The burst's ops were all in flight at once, so there are at least
	// that many, and none may be missing from the free list.
	if n := freePuts(t, src); n < messages {
		t.Fatalf("%d ops on the free list after the run, want at least the burst's %d", n, messages)
	}
	t.Logf("%d messages, %d NACKed puts retried, %d ops on the free list", messages, r.nacked, freePuts(t, src))
}

// TestCrossShardPutsStayOffTheFreeList runs four endpoints on two shards,
// nodes 0 and 1 on the first and 2 and 3 on the second, and has nodes 0
// and 2 each put a burst to a node on their own shard and a burst to one
// on the other, all at once. Only a put whose target shares its
// initiator's shard is counted down and recycled; a target on another
// shard never touches the op, so the shards never write one object. The
// free lists must hold exactly the same-shard ops. Run it under -race.
func TestCrossShardPutsStayOffTheFreeList(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CarryData = false
	fcfg := fabric.DefaultConfig()
	la, err := fabric.LookaheadFor(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewShardGroup(1, 2, la)
	net, err := fabric.NewSharded(g, topology.NewSingleSwitch(4), fcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*Endpoint, 4)
	for node := range eps {
		n := nic.New(g.Shard(net.NodeShard(node)), net, node, pcie.Gen4x16(), nic.DefaultProfile())
		eps[node] = NewEndpoint(n, cfg)
	}
	if net.NodeShard(0) != net.NodeShard(1) || net.NodeShard(2) != net.NodeShard(3) || net.NodeShard(0) == net.NodeShard(2) {
		t.Fatal("want nodes 0 and 1 on one shard, 2 and 3 on the other")
	}
	const box = VAddr(1)
	const local, remote = 24, 40
	size := 2 * fcfg.MTU
	completions := make([]int, 4)
	for node, ep := range eps {
		win, err := ep.InitWindow(box, 1, EpochOps)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < local+remote; i++ {
			if _, err := win.PostBuffer(size); err != nil {
				t.Fatal(err)
			}
		}
		win.SetCompletionHandler(func(*Buffer) { completions[node]++ })
	}
	burst := func(src *Endpoint, near, far int) func() {
		return func() {
			for i := 0; i < local+remote; i++ {
				if i < local {
					src.PutN(near, box, 0, size)
				} else {
					src.PutN(far, box, 0, size)
				}
			}
		}
	}
	g.Shard(net.NodeShard(0)).Schedule(0, burst(eps[0], 1, 2))
	g.Shard(net.NodeShard(2)).Schedule(0, burst(eps[2], 3, 0))
	g.Run()

	for node, want := range []int{remote, local, remote, local} {
		if completions[node] != want {
			t.Errorf("node %d completed %d messages, want %d", node, completions[node], want)
		}
	}
	for _, node := range []int{0, 2} {
		if n := freePuts(t, eps[node]); n != local {
			t.Errorf("node %d: %d ops on the free list, want exactly its %d same-shard puts", node, n, local)
		}
	}
}
