package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkEngineEventThroughput measures raw kernel speed: schedule +
// execute of self-rescheduling events (the inner loop of every simulation
// here). Steady state stays at 0 allocs/op (the container/heap +
// per-Schedule-allocation kernel spent 1 alloc and 48 B per event); a
// benchmark only reports that, TestEngineSteadyStateZeroAlloc asserts it.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.Schedule(Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, tick)
	e.Run()
}

// BenchmarkEngineHeapChurn measures scheduling with a deep queue: 4096
// pending events at all times, executing and replacing — the queue's
// refiling cost at realistic depth, with every callback the same hot
// closure.
func BenchmarkEngineHeapChurn(b *testing.B) {
	e := NewEngine(1)
	const depth = 4096
	executed := 0
	var reload func()
	reload = func() {
		executed++
		if executed < b.N {
			e.Schedule(Time(executed%977)*Nanosecond, reload)
		}
	}
	for i := 0; i < depth; i++ {
		e.Schedule(Time(i)*Nanosecond, reload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// standingAgent is one self-rescheduling callback of
// BenchmarkEngineStandingQueue. The padding gives every agent, and the
// closure allocated right after it, memory of its own.
type standingAgent struct {
	tick func()
	_    [240]byte
}

// BenchmarkEngineStandingQueue is the kernel under a model's load: events
// pending at all times, delays that mix ~100 ns hops at picosecond
// resolution with 1-10 µs timers, and callbacks scattered in memory, so a
// pop touches cold events and closures as a fabric run's does. The
// sub-benchmarks hold the queue depths of the benchmark's fig7 (~420),
// fig8 (~2,600) and scale-8k (10-16k) cells. One op is one executed event.
func BenchmarkEngineStandingQueue(b *testing.B) {
	for _, pending := range []int{512, 4096, 16384} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			benchStandingQueue(b, pending)
		})
	}
}

func benchStandingQueue(b *testing.B, pending int) {
	e := NewEngine(1)
	rng := NewRNG(2)
	executed := 0
	delay := func() Time {
		if rng.Intn(8) == 0 {
			return Microsecond + Time(rng.Intn(int(9*Microsecond)))
		}
		return 80*Nanosecond + Time(rng.Intn(int(40*Nanosecond)))
	}
	spacers := make([][]byte, pending) // live heap between the agents
	for i := range spacers {
		a := &standingAgent{}
		a.tick = func() {
			executed++
			if executed < b.N {
				e.Schedule(delay(), a.tick)
			}
		}
		spacers[i] = make([]byte, 1024)
		e.Schedule(delay(), a.tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	runtime.KeepAlive(spacers)
}

// BenchmarkEngineDaemonOverhead measures a model tick with a daemon rider
// at one-tenth the cadence, the telemetry sampler's shape.
func BenchmarkEngineDaemonOverhead(b *testing.B) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.Schedule(Nanosecond, tick)
		}
	}
	var daemon func()
	daemon = func() { e.ScheduleDaemonP(10*Nanosecond, 1<<20, daemon) }
	e.ScheduleDaemonP(10*Nanosecond, 1<<20, daemon)
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, tick)
	e.Run()
}

// chainObserver is a minimal ledger-shaped ExecObserver: it folds every
// pop's scalars into a running hash, the same work per pop the execution
// ledger does, without the epoch bookkeeping.
type chainObserver struct{ h uint64 }

func (o *chainObserver) ObserveExec(seq uint64, at Time, priority int, label Label) {
	h := o.h ^ seq
	h *= 1099511628211
	h ^= uint64(at)
	h *= 1099511628211
	h ^= uint64(int64(priority))
	h *= 1099511628211
	h ^= uint64(label)
	h *= 1099511628211
	o.h = h
}

// BenchmarkEngineObserverOverhead is BenchmarkEngineEventThroughput with an
// exec observer attached: the cost of recording an execution ledger. The
// disabled path (observer nil) is guarded by BenchmarkEngineEventThroughput
// staying at its baseline; this one bounds the enabled path and must also
// stay at 0 allocs/op.
func BenchmarkEngineObserverOverhead(b *testing.B) {
	e := NewEngine(1)
	obs := &chainObserver{}
	e.SetExecObserver(obs)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.Schedule(Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, tick)
	e.Run()
	if obs.h == 0 && b.N > 1 {
		b.Fatal("observer never fired")
	}
}

// BenchmarkResourceAcquire measures the latency-rate server primitive.
func BenchmarkResourceAcquire(b *testing.B) {
	e := NewEngine(1)
	var r Resource
	e.Schedule(0, func() {
		for i := 0; i < b.N; i++ {
			r.Acquire(e, Nanosecond)
		}
	})
	e.Run()
}

// BenchmarkRNG measures the deterministic generator.
func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
