package harness

import (
	"errors"
	"fmt"
	"strings"

	"rvma/internal/fabric"
	"rvma/internal/ledger"
	"rvma/internal/motif"
	"rvma/internal/recovery"
	"rvma/internal/stats"
	"rvma/internal/topology"
)

// defaultFaultRates are the receiver-ingress drop probabilities the
// FaultSweep table covers when Options.FaultRates is empty. 0.05 is the
// acceptance point: both transports must complete 100% of their operations
// under recovery there.
var defaultFaultRates = []float64{0.01, 0.02, 0.05, 0.1}

// FaultSweep runs the incast motif under uniform packet loss, with and
// without the recovery layer, for both transports. Each (rate, transport)
// row pairs a recovered run (makespan, completion rate, retransmit work,
// goodput) with the fate of the identical run without recovery — which
// deadlocks at any meaningful loss rate, since both transports' completion
// semantics assume a lossless fabric. Cells run on the worker pool like
// every other figure; the table is byte-identical at any worker count.
func FaultSweep(o Options) *Table {
	t := &Table{
		Title: "Fault sweep: incast under uniform loss (dragonfly/adaptive)",
		Header: []string{"transport", "drop", "makespan", "complete", "rexmit",
			"timeouts", "reclaims", "goodput", "no-recovery"},
	}
	rates := o.FaultRates
	if len(rates) == 0 {
		rates = defaultFaultRates
	}
	// The sweep varies loss rate, not link speed: it runs at the first
	// configured speed only.
	if len(o.LinkGbps) == 0 {
		o.LinkGbps = []float64{100}
	}
	nc := NetConfig{"dragonfly/adaptive", topology.KindDragonfly, fabric.RouteAdaptive}
	var specs []ledger.RunSpec
	for _, rate := range rates {
		for _, transport := range []string{"rvma", "rdma"} {
			rec := o.spec(MotifIncast, transport, nc, o.LinkGbps[0])
			rec.Drop, rec.Recover, rec.RetryBudget = rate, true, o.RetryBudget
			bare := o.spec(MotifIncast, transport, nc, o.LinkGbps[0])
			bare.Drop = rate
			specs = append(specs, rec, bare)
		}
	}
	outs := runFigureCells(o, specs, false)
	ic := motif.DefaultIncastConfig()
	for i := 0; i < len(outs); i += 2 {
		rec, bare := outs[i], outs[i+1]
		spec := rec.Spec
		if bare.Err == nil {
			if err := flushCellOutput(o, bare); err != nil {
				t.AddNote("FAILED %s: %v", cellName(bare.Spec), err)
			}
		}
		if err := flushCellOutput(o, rec); err != nil {
			t.AddRow(strings.ToUpper(spec.Transport), fmt.Sprintf("%g", spec.Drop),
				"FAILED", "-", "-", "-", "-", "-", bareStatus(bare))
			t.AddNote("FAILED %s: %v", cellName(spec), err)
			continue
		}
		rs := rec.Recovery
		completion := "-"
		if rs.OpsStarted > 0 {
			completion = fmt.Sprintf("%.1f%%", 100*float64(rs.OpsCompleted)/float64(rs.OpsStarted))
		}
		// Incast payload: every non-root rank sends Messages x MsgBytes to
		// the root; goodput is that payload over the recovered makespan.
		goodput := "-"
		if secs := rec.Makespan.Seconds(); secs > 0 && rec.Ranks > 1 {
			bits := float64(rec.Ranks-1) * float64(ic.Messages) * float64(ic.MsgBytes) * 8
			goodput = stats.FormatGbps(bits / secs / 1e9)
		}
		t.AddRow(strings.ToUpper(spec.Transport), fmt.Sprintf("%g", spec.Drop),
			rec.Makespan.String(), completion,
			fmt.Sprintf("%d", rs.Retransmits), fmt.Sprintf("%d", rs.Timeouts),
			fmt.Sprintf("%d", rs.Reclaims), goodput, bareStatus(bare))
	}
	t.AddNote("recovered cells use timeout/retransmit with the default budget (MaxRetries %d unless -retry-budget overrides)",
		defaultRetryBudget(o))
	t.AddNote("no-recovery column reruns the identical cell without the recovery layer; DEADLOCK means the motif never completed")
	t.AddNote("goodput counts application payload only (retransmitted bytes excluded) at link %s", stats.FormatGbps(o.LinkGbps[0]))
	return t
}

// bareStatus summarizes the no-recovery control cell: its makespan when it
// somehow completed, DEADLOCK when the lost packets wedged it, or the raw
// error otherwise.
func bareStatus(out CellOutput) string {
	if out.Err == nil {
		return out.Makespan.String()
	}
	if errors.Is(out.Err, motif.ErrDeadlock) {
		return "DEADLOCK"
	}
	return "ERROR"
}

// defaultRetryBudget reports the retry budget the sweep's recovered cells
// actually use, for the table note.
func defaultRetryBudget(o Options) int {
	if o.RetryBudget > 0 {
		return o.RetryBudget
	}
	return recovery.DefaultConfig().MaxRetries
}
