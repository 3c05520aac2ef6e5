package rdma

import (
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/nic"
	"rvma/internal/pcie"
	"rvma/internal/sim"
	"rvma/internal/topology"
)

// freeOps walks ep's free lists, failing t if an op on them has a
// reference left, and returns their lengths.
func freeOps(t *testing.T, ep *Endpoint) (puts, sends int) {
	t.Helper()
	for op := ep.sparePuts; op != nil; op = op.next {
		if op.refs != 0 || !op.pooled {
			t.Fatalf("node %d: a put on the free list has %d references (pooled %v)", ep.Node(), op.refs, op.pooled)
		}
		puts++
	}
	for op := ep.spareSends; op != nil; op = op.next {
		if op.refs != 0 {
			t.Fatalf("node %d: a send on the free list has %d references", ep.Node(), op.refs)
		}
		sends++
	}
	return puts, sends
}

// TestCrossShardOpsStayOffTheFreeList runs four endpoints on two shards,
// nodes 0 and 1 on the first and 2 and 3 on the second. Nodes 0 and 2
// each negotiate a buffer on a node of their own shard and on one of the
// other, then, all at once, issue fenced puts (a conservative fence, so
// each one's transport ACK is a reference too) and sends to both. Only an
// op whose target shares its initiator's shard is counted down and
// recycled; a target on another shard never touches the op, so the shards
// never write one object. The free lists must hold exactly the same-shard
// ops. The endpoints are placed as a cluster places them, so each
// shard's two share its stages and slabs. Run it under -race.
func TestCrossShardOpsStayOffTheFreeList(t *testing.T) {
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
	nics := make([]*nic.NIC, 4)
	for node := range eps {
		nics[node] = nic.New(g.Shard(net.NodeShard(node)), net, node, pcie.Gen4x16(), nic.DefaultProfile())
		eps[node] = new(Endpoint)
	}
	InitEndpoints(eps, nics, cfg)
	if eps[0].sh != eps[1].sh || eps[2].sh != eps[3].sh || eps[0].sh == eps[2].sh {
		t.Fatal("want one shared record per shard")
	}
	if net.NodeShard(0) != net.NodeShard(1) || net.NodeShard(2) != net.NodeShard(3) || net.NodeShard(0) == net.NodeShard(2) {
		t.Fatal("want nodes 0 and 1 on one shard, 2 and 3 on the other")
	}
	size := 2 * fcfg.MTU
	// Each link is written only by its source's shard.
	type link struct {
		src, near, far int
		toNear, toFar  *RegOp
	}
	links := []*link{{src: 0, near: 1, far: 2}, {src: 2, near: 3, far: 0}}
	for _, l := range links {
		l := l
		g.Shard(net.NodeShard(l.src)).Schedule(0, func() {
			l.toNear = eps[l.src].RequestRemoteBuffer(l.near, size)
			l.toFar = eps[l.src].RequestRemoteBuffer(l.far, size)
		})
	}
	g.Run()

	const local, remote = 24, 40
	for _, l := range links {
		near := l.toNear.Done.Value().(RemoteBuffer)
		far := l.toFar.Done.Value().(RemoteBuffer)
		ep := eps[l.src]
		g.Shard(net.NodeShard(l.src)).Schedule(0, func() {
			for i := 0; i < local+remote; i++ {
				rb, dst := near, near.Node
				if i >= local {
					rb, dst = far, far.Node
				}
				ep.PutN(rb, 0, size, CompleteSendRecv)
				ep.Send(dst, 1, 64)
			}
		})
	}
	g.Run()

	for _, node := range []int{1, 3} {
		if got := eps[node].Stats.PutsPlaced; got != local {
			t.Errorf("node %d placed %d puts, want %d", node, got, local)
		}
	}
	for _, node := range []int{0, 2} {
		if got := eps[node].Stats.PutsPlaced; got != remote {
			t.Errorf("node %d placed %d puts, want %d", node, got, remote)
		}
		if puts, sends := freeOps(t, eps[node]); puts != local || sends != local {
			t.Errorf("node %d: %d puts and %d sends on the free lists, want exactly its %d same-shard ones of each",
				node, puts, sends, local)
		}
	}
}
