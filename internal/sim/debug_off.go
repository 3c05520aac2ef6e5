//go:build !simdebug

package sim

// DebugEnabled is false in normal builds: every `if sim.DebugEnabled`
// guard is a compile-time-false branch the compiler deletes, so the
// invariant layer costs nothing unless the simdebug tag is set.
const DebugEnabled = false

// StepGuard is the re-entry check of a step record (see the simdebug
// build); normal builds call it only under DebugEnabled, so it holds
// nothing.
type StepGuard struct{}

// Enter does nothing in normal builds.
func (*StepGuard) Enter(string) {}

// Leave does nothing in normal builds.
func (*StepGuard) Leave() {}
