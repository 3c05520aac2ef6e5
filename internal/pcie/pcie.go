// Package pcie models the host bus between a NIC and host memory.
//
// The paper makes PCIe latency an explicit, first-class parameter of its
// simulations: "Both models use a PCIe latency of 150ns, meant to balance
// bus latencies between PCIe Gen 4 and Gen 5", and notes that Gen 6 will
// drop round-trip latencies to tens of nanoseconds, shrinking (among other
// things) the penalty for spilling RVMA counters to host memory (§III-B,
// §V-B). This package reproduces that model: a fixed per-transaction
// latency plus a bandwidth term for payload movement.
package pcie

import "rvma/internal/sim"

// Bus is one node's PCIe connection between NIC and host memory. DMA
// transactions serialize on the bus's data path; each also pays the
// generation's fixed latency.
type Bus struct {
	cfg  Config
	data sim.Resource

	// Stats.
	Transactions uint64
	Bytes        uint64
}

// Config selects the modeled PCIe generation.
type Config struct {
	// Latency is the one-way transaction latency (DLLP+PHY+host path).
	Latency sim.Time
	// GBps is the usable data bandwidth in gigabytes per second.
	GBps float64
}

// Gen4x16 is the paper's baseline: 150 ns latency balancing Gen 4/Gen 5,
// ~25 GB/s usable on x16.
func Gen4x16() Config { return Config{Latency: 150 * sim.Nanosecond, GBps: 25} }

// Gen6x16 is the paper's forward-looking configuration: tens of
// nanoseconds of latency ("10s of ns vs 200 today"), ~100 GB/s usable.
func Gen6x16() Config { return Config{Latency: 20 * sim.Nanosecond, GBps: 100} }

// Init makes b an idle bus with the given configuration. A NIC holds its
// bus by value and initializes it in place.
func (b *Bus) Init(cfg Config) {
	if cfg.Latency < 0 || cfg.GBps <= 0 {
		panic("pcie: invalid configuration")
	}
	*b = Bus{cfg: cfg}
}

// Latency returns the configured per-transaction latency.
func (b *Bus) Latency() sim.Time { return b.cfg.Latency }

// TransferTime models moving size bytes across the bus starting now: it
// occupies the data path and returns the simulated completion time. A
// zero-byte transfer (a doorbell or a pure header write) still pays the
// transaction latency. Models schedule their own event at the returned
// time, often chaining several timed steps into one.
func (b *Bus) TransferTime(e *sim.Engine, size int) sim.Time {
	if size < 0 {
		panic("pcie: negative transfer size")
	}
	b.Transactions++
	b.Bytes += uint64(size)
	hold := sim.SerializationTime(size, b.cfg.GBps*8) // GB/s -> Gbit/s
	return b.data.Acquire(e, hold) + b.cfg.Latency
}

// Utilization reports the data path's busy fraction so far.
func (b *Bus) Utilization(e *sim.Engine) float64 { return b.data.Utilization(e) }

// Backlog returns how long a DMA issued now would wait for the data path —
// the bus's in-flight queue expressed as time. Telemetry samples it as the
// "in-flight DMA" probe.
func (b *Bus) Backlog(e *sim.Engine) sim.Time { return b.data.Backlog(e) }

// BusyTime returns the data path's accumulated occupied time.
func (b *Bus) BusyTime() sim.Time { return b.data.BusyTime() }
