//go:build go1.23

package sim

import (
	"iter"
	"testing"
)

// parkOnce is a coroutine body that parks once and returns, as the
// process below does. It is a plain function, so pulling it allocates
// only what iter.Pull itself does.
func parkOnce(yield func(struct{}) bool) { yield(struct{}{}) }

// TestProcessSpawnAllocBudget writes down what a process costs to start
// and finish. Most of it is the runtime's: iter.Pull's coroutine, its
// next/stop/yield closures and the state they share, and the record the
// coroutine's goroutine starts with, all measured here on a bare
// coroutine that parks once. The simulator adds two: the body adapter
// handed to iter.Pull and the bound wake-up. The Process record itself
// comes from a per-engine chunk (procChunk), so it rounds to zero.
// Switches after that allocate nothing (TestCompletionZeroAlloc).
func TestProcessSpawnAllocBudget(t *testing.T) {
	if DebugEnabled {
		t.Skip("simdebug invariant checks box their arguments; the gate is for normal builds")
	}
	const (
		budget    = 13 // 11 of them the runtime's with go1.24
		simAllocs = 2
	)
	e := NewEngine(1)
	body := func(p *Process) { p.Sleep(Nanosecond) }
	spawnRun := func() {
		e.Spawn("p", body)
		e.Run()
	}
	got := testing.AllocsPerRun(100, spawnRun)
	runtime := testing.AllocsPerRun(100, func() {
		next, _ := iter.Pull(parkOnce)
		next()
		next()
	})
	t.Logf("Spawn + run to end: %v allocs, %v of them the runtime's coroutine", got, runtime)
	if got > budget {
		t.Errorf("Spawn + run to end: %v allocs, budget %d", got, budget)
	}
	if got-runtime > simAllocs {
		t.Errorf("Spawn + run to end: %v allocs over the runtime's %v, want at most %d", got-runtime, runtime, simAllocs)
	}
	if e.procs != 0 {
		t.Fatalf("%d processes still live after run to end", e.procs)
	}
}
