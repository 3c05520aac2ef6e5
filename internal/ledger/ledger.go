// Package ledger records a deterministic execution ledger: a hash chain
// over every model event the engines pop, folded into fixed-size epoch
// digests plus a final chain head.
//
// The ledger is the repo's instrument for the determinism contract that
// ROADMAP item 1 (sharded, lookahead-parallel engines) stands on: two runs
// that should be identical must pop the same events — same sequence
// numbers, same timestamps, same priorities, same component labels — in
// the same order. Comparing final tables only says *that* two runs
// diverged; comparing ledgers says *where*: epoch digests localize the
// first divergence to a 64k-event span in O(log n) chain comparisons, and
// a replay with a full-resolution window pins it to the exact pop.
//
// What is hashed: (sim-time, priority, label-name) of every non-daemon
// pop, in canonical (time, priority) order, so the chain is the same at
// any shard count (see canonical.go). What is deliberately not hashed:
// host wall-clock time (nondeterministic by nature — the per-component
// profile reports it separately), daemon pops (telemetry riders must not
// perturb the ledger, so sampling on/off yields the same chain), and event
// payloads (callbacks are closures; their identity is already pinned by
// timestamp, priority and scheduling order).
package ledger

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"rvma/internal/sim"
)

// DefaultEpochEvents is the number of pops folded into one epoch digest.
// 64k events keeps the ledger file small (one record per epoch) while a
// divergence window stays cheap to replay at full resolution.
const DefaultEpochEvents = 65536

// Version identifies the ledger file format.
const Version = 1

// ModeCanonical marks a ledger whose chain is partition-invariant: records
// are (time, priority, label-name-hash) tuples folded in canonical
// (time, priority) order rather than raw engine pop order (see
// canonical.go). Every ledger this package records is canonical; an empty
// Mode marks a raw pop-order chain recorded by earlier builds, whose
// digests hash a different record shape and are never comparable.
const ModeCanonical = "canonical"

// CheckCanonical returns an error unless l is a canonical-mode ledger.
// Raw pop-order ledgers can be neither compared with nor replayed by this
// build; the fix is to record the run again.
func (l *Ledger) CheckCanonical() error {
	if l.Mode != ModeCanonical {
		return fmt.Errorf("ledger mode is %q, not %q: raw pop-order ledgers from earlier builds cannot be compared or replayed; re-record the run",
			modeName(l.Mode), ModeCanonical)
	}
	return nil
}

// FNV-1a 64-bit parameters. The chain needs speed and avalanche, not
// cryptographic strength: a divergent pop flips its epoch digest with
// probability 1 - 2^-64, which is all forensics requires.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// mix64 folds the 8 bytes of v into h, FNV-1a style (little-endian byte
// order). It is branch-free and allocation-free: the recorder runs it
// three times per folded record.
func mix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Options configures a CanonicalRecorder.
type Options struct {
	// EpochEvents is the epoch size in pops; 0 means DefaultEpochEvents.
	EpochEvents uint64
	// Profile enables the per-component host-time profile. It reads the
	// host clock once per pop, so it costs real time; the measurements
	// never enter the ledger digests, so enabling it cannot change the
	// chain head.
	Profile bool
	// Run, when non-nil, is embedded in the ledger file so a diff tool can
	// rebuild and replay the run.
	Run *RunSpec
}

// epochState is one closed epoch, pre-serialization.
type epochState struct {
	events   uint64
	firstPop uint64
	firstSeq uint64
	lastSeq  uint64
	digest   uint64
	chain    uint64
}

func labelName(labels []string, l sim.Label) string {
	if int(l) < len(labels) {
		return labels[l]
	}
	return "-"
}

// Epoch is one serialized epoch record. Digest covers this epoch's pops
// only; Chain folds every digest up to and including this one, so two
// ledgers' chains agree at epoch i exactly when all pops before its end
// agree — the property the diff's binary search relies on.
type Epoch struct {
	Epoch    int    `json:"epoch"`
	Events   uint64 `json:"events"`
	FirstPop uint64 `json:"first_pop"`
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	Digest   string `json:"digest"`
	Chain    string `json:"chain"`
}

// WindowRecord is one full-resolution pop inside a capture window.
type WindowRecord struct {
	Pop    uint64 `json:"pop"`
	Seq    uint64 `json:"seq"`
	TimePS int64  `json:"time_ps"`
	Pri    int    `json:"pri"`
	Label  string `json:"label"`
}

// Window is a full-resolution capture over a pop range.
type Window struct {
	FromPop uint64         `json:"from_pop"`
	ToPop   uint64         `json:"to_pop"`
	Records []WindowRecord `json:"records"`
}

// Ledger is the serialized execution ledger. It contains no host-time
// fields: everything in this file is a deterministic function of the run.
type Ledger struct {
	Version     int      `json:"version"`
	Mode        string   `json:"mode,omitempty"`
	EpochEvents uint64   `json:"epoch_events"`
	Events      uint64   `json:"events"`
	ChainHead   string   `json:"chain_head"`
	FinalTimePS int64    `json:"final_time_ps"`
	Labels      []string `json:"labels"`
	Run         *RunSpec `json:"run,omitempty"`
	Epochs      []Epoch  `json:"epochs"`
	Window      *Window  `json:"window,omitempty"`
}

// WriteJSON writes the ledger as indented JSON.
func (l *Ledger) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(l)
}

// Marshal renders the ledger to bytes (indented JSON).
func (l *Ledger) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the ledger to path.
func (l *Ledger) WriteFile(path string) error {
	b, err := l.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFile loads a ledger file.
func ReadFile(path string) (*Ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("ledger: parse %s: %w", path, err)
	}
	if l.Version != Version {
		return nil, fmt.Errorf("ledger: %s has version %d, want %d", path, l.Version, Version)
	}
	return &l, nil
}

// hex64 renders a digest as a fixed-width hex string (JSON cannot round-
// trip uint64 through float64 safely).
func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }
