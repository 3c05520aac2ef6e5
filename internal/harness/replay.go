package harness

import (
	"fmt"

	"rvma/internal/ledger"
)

// This file is the in-process replay entry point cmd/simdiff uses: given
// the RunSpec embedded in a ledger file, run the same simulation again
// through RunCell with a full-resolution capture window armed around a
// divergent epoch.

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
