// Package flow is the dataflow layer under rvmalint: an intraprocedural
// control-flow graph built from go/ast, a generic forward/backward
// worklist solver over it, and per-function call summaries that let the
// analyzers reason across function boundaries bottom-up.
//
// The first generation of rvmalint analyzers (wallclock, maprange,
// simtime, goroutine) are single-pass AST pattern matchers: they catch a
// banned construct where it is written. The properties PR 7 promotes to
// compile time — "no nondeterministic value reaches a scheduling or
// recording sink", "every span reaches a terminal on every path", "the
// event hot path allocates nothing", "picosecond integers never mix
// with nanosecond integers" — are path and flow properties. They need a
// CFG (so an early return or an error branch is a distinct path), a
// fixpoint solver (so loops converge), and summaries (so a value
// laundered through a helper is still tracked).
//
// Everything here is standard library only, mirroring the structure of
// golang.org/x/tools/go/cfg and go/analysis closely enough that a
// mechanical rehost is possible, without taking the dependency.
//
// # CFG shape
//
// New lowers one function body to basic blocks of leaf statements and
// condition expressions. Compound statements never appear inside a
// block's node list: an if contributes its condition expression, a
// range loop contributes a head block whose Range field carries the
// range clause, a switch contributes its tag plus one block per case.
// Defer is special: deferred calls run at every function exit, so they
// are collected on Graph.Defers (in source order) and also appear as
// ordinary nodes for argument-evaluation purposes.
//
// Conditions that are compile-time constants prune their dead edge.
// This is what makes `if sim.DebugEnabled { ... }` free for the
// hot-path analyzer: under the default build DebugEnabled is the
// constant false, the guarded block is never linked into the graph,
// and nothing inside it is analyzed — exactly matching the compiler,
// which deletes the branch.
//
// Blocks whose terminator is a call to panic are marked Panics. The
// analyzers treat panic paths as cold: an allocation feeding a panic
// message does not count against a hot path, and a span abandoned by a
// panic is not a leak (the run is already dead).
package flow

import "go/types"

// Taint is one abstract value of the taint lattice: which real-world
// nondeterminism source reaches a value (Cause, "" when none) and which
// of the enclosing function's parameters flow into it (Params, a
// bitmask over receiver-then-parameter indices). Param bits are how
// summaries are built: analyzing a function with parameter i seeded as
// bit i reveals, at each return and each sink, which parameters the
// function launders where.
type Taint struct {
	Cause  string
	Params uint64
}

// IsZero reports whether the taint carries no information.
func (t Taint) IsZero() bool { return t.Cause == "" && t.Params == 0 }

// JoinTaint merges two taints. Causes join to the lexicographically
// smallest non-empty cause so the merge is deterministic and reaches a
// fixpoint (the set of causes is finite and the pick only ever
// decreases).
func JoinTaint(a, b Taint) Taint {
	out := Taint{Cause: a.Cause, Params: a.Params | b.Params}
	if out.Cause == "" || (b.Cause != "" && b.Cause < out.Cause) {
		if b.Cause != "" {
			out.Cause = b.Cause
		}
	}
	return out
}

// Summary is the bottom-up call summary of one function: what a caller
// must know without re-analyzing the body. Summaries are computed when
// a package is analyzed. Each package is type-checked against its
// dependencies' export data, whose function objects are not the ones a
// source check of the dependency created, so a call into another
// package finds no summary and the analyzers fall back to their
// conservative defaults; within-package flow is the common case.
type Summary struct {
	// Params is the tracked parameter count: the receiver (when the
	// function is a method) followed by the signature parameters.
	Params int
	// ResultCause is the nondeterminism cause each call to this function
	// imports into its results regardless of arguments ("" = clean).
	ResultCause string
	// ParamToResult[i] reports whether parameter i's value can flow into
	// a result.
	ParamToResult []bool
	// ParamSink[i] names the sink parameter i's value can reach inside
	// the callee (transitively), "" when none. A caller passing a
	// tainted argument for such a parameter owns the diagnostic.
	ParamSink []string
	// Allocates reports whether the function's non-panic paths contain a
	// heap allocation (directly or via an intra-package callee);
	// AllocWhat describes the first one for diagnostics.
	Allocates bool
	AllocWhat string
}

// Store holds summaries keyed by the type-checker's function objects.
// Every type-check creates its own objects, so a store serves only the
// package whose check made them, and each package's analysis makes its
// own.
type Store map[*types.Func]*Summary

// Get returns the summary for f, or nil when f is unknown.
func (s Store) Get(f *types.Func) *Summary {
	if f == nil {
		return nil
	}
	return s[f]
}

// GetOrCreate returns the summary for f, creating an empty one sized to
// f's receiver+parameter count on first use.
func (s Store) GetOrCreate(f *types.Func) *Summary {
	if sum := s[f]; sum != nil {
		return sum
	}
	sig, _ := f.Type().(*types.Signature)
	n := 0
	if sig != nil {
		n = sig.Params().Len()
		if sig.Recv() != nil {
			n++
		}
	}
	sum := &Summary{
		Params:        n,
		ParamToResult: make([]bool, n),
		ParamSink:     make([]string, n),
	}
	s[f] = sum
	return sum
}
