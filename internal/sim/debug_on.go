//go:build simdebug

package sim

// DebugEnabled reports whether the simdebug runtime invariant layer is
// compiled in. It is a constant so that guarded checks are dead-code
// eliminated entirely in normal builds:
//
//	if sim.DebugEnabled {
//		sim.Assertf(cond, "...", args...)
//	}
//
// Build with `go test -tags simdebug ./...` (or any -tags simdebug
// build) to enable every invariant check in the kernel and the model
// packages layered on top of it.
const DebugEnabled = true

// StepGuard is a step record's re-entry check: a record whose step method
// runs the record up to its next wait (a motif rank) embeds one, and its
// step opens with
//
//	if sim.DebugEnabled {
//		r.guard.Enter("role")
//		defer r.guard.Leave()
//	}
//
// A continuation that ran the step again while it is still on the stack
// would run one rank as two; Enter panics on it.
type StepGuard struct{ on bool }

// Enter marks the step as on the stack, panicking if it already is.
func (g *StepGuard) Enter(role string) {
	Assertf(!g.on, "%s: step entered while already on the stack", role)
	g.on = true
}

// Leave marks the step as returned.
func (g *StepGuard) Leave() { g.on = false }
