// Package fixture seeds goroutine-escape violations for the analyzer
// test.
package fixture

import "rvma/internal/sim"

func escape(e *sim.Engine, ch chan int) {
	go func() { ch <- 1 }() // want `go statement escapes the engine goroutine`
	go helper(ch)           // want `go statement escapes the engine goroutine`

	// A step the engine schedules is the approved construct.
	e.Schedule(sim.Nanosecond, func() {})

	//rvmalint:allow goroutine -- fixture: exercising the allow directive
	go helper(ch)
}

func helper(ch chan int) { ch <- 2 }
