// Package fixture seeds map-iteration-order hazards for the analyzer
// test.
package fixture

import (
	"fmt"
	"os"
	"sort"

	"rvma/internal/sim"
)

// Exported accumulates results; appending to it in map order leaks the
// randomized order to callers.
var Exported []int

type comp struct {
	eng  *sim.Engine
	done []int
}

// kick stands in for any model-package helper: the analyzer cannot see
// whether it schedules, so calling it per map entry is order-sensitive.
func (c *comp) kick(int) {}

func (c *comp) bad(m map[int]int) {
	for k, v := range m {
		c.eng.Schedule(sim.Nanosecond, func() {}) // want `Engine.Schedule inside a map-range body`
		c.eng.At(sim.Nanosecond, func() {})       // want `Engine.At inside a map-range body`
		c.kick(k)                                 // want `call to kick inside a map-range body`
		fmt.Println(k)                            // want `fmt.Println inside a map-range body` `map iteration order reaches printed output`
		fmt.Fprintf(os.Stderr, "%d", v)           // want `fmt.Fprintf inside a map-range body` `map iteration order reaches printed output`
		Exported = append(Exported, v)            // want `append to "Exported" inside a map-range body`
		c.done = append(c.done, v)                // want `append to "done" inside a map-range body`
	}
}

// deferredClosure shows the hazard surviving inside a function literal:
// the Schedule still runs per map entry.
func (c *comp) deferredClosure(m map[int]int) {
	for range m {
		func() {
			c.eng.Schedule(0, func() {}) // want `Engine.Schedule inside a map-range body`
		}()
	}
}

// good is the approved shape: commutative accumulation, or collect into
// a local slice and sort before doing ordered work.
func (c *comp) good(m map[int]int) {
	total := 0
	keys := make([]int, 0, len(m))
	for k, v := range m {
		total += v
		keys = append(keys, k) // local lowercase slice: the sort below fixes the order
	}
	sort.Ints(keys)
	for _, k := range keys {
		c.kick(k)
		c.eng.Schedule(sim.Nanosecond, func() {})
	}
	_ = total
}

// allowed demonstrates suppression for a commutative call the analyzer
// cannot prove safe.
func (c *comp) allowed(m map[int]int) {
	for k := range m {
		//rvmalint:allow maprange -- fixture: kick is known commutative here
		c.kick(k)
	}
}

// allowedBlock demonstrates block-extent suppression: a directive placed
// directly above a range statement covers the entire loop body. It names
// both analyzers that fire here: the syntactic ban and the taint track.
func (c *comp) allowedBlock(m map[int]int) {
	//rvmalint:allow maprange,detaint -- fixture: order-independent diagnostics only
	for k, v := range m {
		c.kick(k)
		c.kick(v)
		fmt.Println(k)
	}
}
