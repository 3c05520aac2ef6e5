package harness

import (
	"fmt"

	"rvma/internal/collective"
	"rvma/internal/fabric"
	"rvma/internal/ledger"
	"rvma/internal/sim"
	"rvma/internal/stats"
	"rvma/internal/topology"
)

// CollectivesTable is an extension experiment beyond the paper's motifs:
// latency-bound collective algorithms (dissemination barrier, recursive-
// doubling allreduce, binomial broadcast, ring allgather) over both
// transports on the adaptively routed dragonfly. Chains of small messages
// are where RVMA's completion model compounds. Each collective is a motif
// named by its op.
func CollectivesTable(o Options) *Table {
	o.Nodes = min(o.Nodes, 64) // all-to-all Prepare is O(n^2) handshakes for RDMA
	t := &Table{
		Title:  fmt.Sprintf("Extension: collectives, RVMA vs RDMA (dragonfly/adaptive, %d+ nodes, 100Gbps)", o.Nodes),
		Header: []string{"collective", "RVMA", "RDMA", "speedup"},
	}
	nc := NetConfig{"dragonfly/adaptive", topology.KindDragonfly, fabric.RouteAdaptive}
	var specs []ledger.RunSpec
	for _, op := range []collective.Op{collective.OpBarrier, collective.OpAllreduce, collective.OpBroadcast, collective.OpAllgather} {
		specs = append(specs, o.spec(MotifName(op), "rvma", nc, 100), o.spec(MotifName(op), "rdma", nc, 100))
	}
	outs := runFigureCells(o, specs, false)
	for i := 0; i < len(outs); i += 2 {
		rv, rd := outs[i], outs[i+1]
		err1, err2 := flushCellOutput(o, rv), flushCellOutput(o, rd)
		if err1 != nil || err2 != nil {
			t.AddNote("SKIPPED %s: %v %v", rv.Spec.Motif, err1, err2)
			continue
		}
		t.AddRow(rv.Spec.Motif, rv.Makespan.String(), rd.Makespan.String(),
			fmt.Sprintf("%.2fx", stats.Speedup(rd.Makespan.Seconds(), rv.Makespan.Seconds())))
	}
	t.AddNote("10 iterations each; allreduce = 256 x 8B elements, broadcast/allgather = 4KiB blocks")
	return t
}

// The receive-side steering cost model of §III-A/§IV-A, in NIC clock
// cycles, following the paper's qualitative claims: RVMA's wildcard-free
// lookup table "always has a single-lookup response (item found or no
// item found)"; a Portals-style match list walks its posted entries in
// order (wildcards, ignore bits, MPI ordering) until the first hit.
const (
	nicCycle          = sim.Nanosecond // a 1 GHz NIC clock
	lutLookupCycles   = 2              // hash + read, independent of occupancy
	listElementCycles = 1              // per element walked: generous to the list
	lutEntryBytes     = 24             // NIC memory per LUT entry (§IV-A)
)

// lutLookupTime is the modeled RVMA LUT lookup latency.
func lutLookupTime() sim.Time { return lutLookupCycles * nicCycle }

// listMatchTime is the modeled latency of a match-list walk that traversed
// n elements before hitting (or exhausting the list); a miss on an empty
// list still checks one element.
func listMatchTime(n int) sim.Time { return sim.Time(max(n, 1)*listElementCycles) * nicCycle }

// MatchEngineTable prices the two receive-side steering designs with the
// NIC cost model: RVMA's single-lookup table is flat; a match-list walk
// grows with posted depth.
func MatchEngineTable(o Options) *Table {
	t := &Table{
		Title:  "Extension: receive-side steering cost (NIC cost model, §IV-A)",
		Header: []string{"posted entries", "RVMA LUT lookup", "match-list walk (avg hit at n/2)", "LUT NIC memory"},
	}
	for _, n := range []int{16, 256, 4096, 65536} {
		t.AddRow(
			fmt.Sprintf("%d", n),
			lutLookupTime().String(),
			listMatchTime(n/2).String(),
			stats.FormatBytes(lutEntryBytes*n),
		)
	}
	t.AddNote("cost model: %v NIC clock, %d-cycle table lookup, %d cycle per list element",
		nicCycle, lutLookupCycles, listElementCycles)
	t.AddNote("the paper's LUT entry is 24 bytes: mailbox address + buffer head + completion pointer")
	return t
}
