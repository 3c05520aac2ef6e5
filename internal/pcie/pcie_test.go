package pcie

import (
	"testing"
	"testing/quick"

	"rvma/internal/sim"
)

func TestGenerations(t *testing.T) {
	g4 := Gen4x16()
	g6 := Gen6x16()
	if g4.Latency != 150*sim.Nanosecond {
		t.Fatalf("Gen4/5 latency = %v, want the paper's 150ns", g4.Latency)
	}
	if g6.Latency >= g4.Latency {
		t.Fatal("Gen6 latency must be lower ('10 of ns vs 200 today')")
	}
	if g6.GBps <= g4.GBps {
		t.Fatal("Gen6 bandwidth must exceed Gen4")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config should panic")
		}
	}()
	new(Bus).Init(Config{Latency: -1, GBps: 1})
}

func TestDoorbellCostsLatencyOnly(t *testing.T) {
	eng := sim.NewEngine(1)
	b := new(Bus)
	b.Init(Gen4x16())
	done := b.TransferTime(eng, 0)
	if done != 150*sim.Nanosecond {
		t.Fatalf("zero-byte transfer completed at %v, want 150ns", done)
	}
	if b.Transactions != 1 || b.Bytes != 0 {
		t.Fatalf("stats: %d transactions, %d bytes", b.Transactions, b.Bytes)
	}
}

func TestTransferBandwidthTerm(t *testing.T) {
	eng := sim.NewEngine(1)
	b := new(Bus)
	b.Init(Config{Latency: 100 * sim.Nanosecond, GBps: 25})
	// 25 GB/s = 200 Gbit/s; 250,000 bytes = 2,000,000 bits = 10 us.
	done := b.TransferTime(eng, 250000)
	want := 10*sim.Microsecond + 100*sim.Nanosecond
	if done != want {
		t.Fatalf("transfer completed at %v, want %v", done, want)
	}
}

func TestBusSerializesTransfers(t *testing.T) {
	eng := sim.NewEngine(1)
	b := new(Bus) // 8 Gbit/s
	b.Init(Config{Latency: 10 * sim.Nanosecond, GBps: 1})
	first := b.TransferTime(eng, 1000)  // 1us + 10ns
	second := b.TransferTime(eng, 1000) // queued behind
	if first != sim.Microsecond+10*sim.Nanosecond {
		t.Fatalf("first = %v", first)
	}
	if second != 2*sim.Microsecond+10*sim.Nanosecond {
		t.Fatalf("second = %v, want data paths serialized", second)
	}
}

func TestNegativeTransferPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	b := new(Bus)
	b.Init(Gen4x16())
	defer func() {
		if recover() == nil {
			t.Fatal("negative size should panic")
		}
	}()
	b.TransferTime(eng, -1)
}

// Property: Gen6 always completes a transfer no later than Gen4.
func TestGen6NeverSlowerProperty(t *testing.T) {
	run := func(cfg Config, size int) sim.Time {
		eng := sim.NewEngine(1)
		b := new(Bus)
		b.Init(cfg)
		return b.TransferTime(eng, size)
	}
	f := func(sizeRaw uint16) bool {
		size := int(sizeRaw)
		return run(Gen6x16(), size) <= run(Gen4x16(), size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
