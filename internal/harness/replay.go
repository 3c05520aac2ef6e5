package harness

import (
	"fmt"

	"rvma/internal/ledger"
)

// This file is the in-process replay entry point cmd/simdiff uses: given
// the RunSpec embedded in a ledger file, run the same simulation again
// through RunCell with a full-resolution capture window armed around a
// divergent epoch, and pin the first divergent event of two such replays.

// ReplayOptions configures ReplaySpec.
type ReplayOptions struct {
	// EpochEvents must match the original recording for the ledgers to be
	// comparable; 0 uses the ledger default.
	EpochEvents uint64
	// WindowFrom/WindowTo arm full-resolution capture over a pop range
	// (both zero disables capture).
	WindowFrom, WindowTo uint64
	// Profile enables the host-time profile on the replay.
	Profile bool
}

// ReplaySpec re-runs the simulation a canonical ledger's embedded RunSpec
// describes with a fresh canonical recorder attached and returns the
// finalized ledger (including the captured window, when one was armed).
// Replay is exact: every run, original or replay, is built by RunCell, and
// the canonical chain is the same at any shard count.
// Raw pop-order ledgers from earlier builds are refused.
func ReplaySpec(l *ledger.Ledger, ro ReplayOptions) (*ledger.Ledger, *ledger.ProfileReport, error) {
	if err := l.CheckCanonical(); err != nil {
		return nil, nil, fmt.Errorf("harness: %w", err)
	}
	if l.Run == nil {
		return nil, nil, fmt.Errorf("harness: ledger embeds no run spec to replay")
	}
	rs := *l.Run
	rec := ledger.NewCanonicalRecorder(ledger.Options{EpochEvents: ro.EpochEvents, Profile: ro.Profile, Run: &rs})
	if ro.WindowTo > 0 {
		rec.SetWindow(ro.WindowFrom, ro.WindowTo)
	}
	if out := RunCell(rs, Observers{Ledger: rec}); out.Err != nil {
		return nil, nil, out.Err
	}
	return rec.Finalize(), rec.Profile(), nil
}

// ReplayDivergence pins a ledger divergence to its first event: it replays
// both ledgers' RunSpecs with full-resolution capture over the divergent
// window d names (from ledger.Compare) and compares the captures pop by
// pop. A nil divergence means the windows agree (the divergence did not
// reproduce); a replay that misses its recorded chain head is an error.
func ReplayDivergence(la, lb *ledger.Ledger, d ledger.Diff) (*ledger.WindowDivergence, error) {
	ro := ReplayOptions{EpochEvents: la.EpochEvents, WindowFrom: d.FromPop, WindowTo: d.ToPop}
	ra, _, err := ReplaySpec(la, ro)
	if err != nil {
		return nil, fmt.Errorf("run A: %w", err)
	}
	if ra.ChainHead != la.ChainHead {
		return nil, fmt.Errorf("run A replay did not reproduce (chain %s vs recorded %s)", ra.ChainHead, la.ChainHead)
	}
	rb, _, err := ReplaySpec(lb, ro)
	if err != nil {
		return nil, fmt.Errorf("run B: %w", err)
	}
	if rb.ChainHead != lb.ChainHead {
		return nil, fmt.Errorf("run B replay did not reproduce (chain %s vs recorded %s)", rb.ChainHead, lb.ChainHead)
	}
	return ledger.CompareWindows(ra.Window, rb.Window)
}
