package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample stddev of this classic set is ~2.138.
	if !almostEqual(s.Stddev, 2.138, 0.01) {
		t.Fatalf("stddev = %v", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.Stddev != 0 {
		t.Fatalf("singleton summary = %+v", s)
	}
}

func TestSpeedupAndReduction(t *testing.T) {
	if s := Speedup(4.4, 1.0); s != 4.4 {
		t.Fatalf("speedup = %v", s)
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("speedup over zero should be +Inf")
	}
	if r := Reduction(100, 34.2); !almostEqual(r, 0.658, 1e-9) {
		t.Fatalf("reduction = %v (the paper's 65.8%%)", r)
	}
	if Reduction(0, 5) != 0 {
		t.Fatal("reduction with zero baseline should be 0")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int]string{
		2:       "2B",
		1023:    "1023B",
		1024:    "1KiB",
		65536:   "64KiB",
		1 << 20: "1MiB",
		1 << 30: "1GiB",
		1500:    "1500B",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatGbps(t *testing.T) {
	if got := FormatGbps(100); got != "100Gbps" {
		t.Errorf("got %q", got)
	}
	if got := FormatGbps(2000); got != "2Tbps" {
		t.Errorf("got %q", got)
	}
}

// Property: mean is bounded by min and max; stddev is non-negative.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.Mean && s.Mean <= s.Max && s.Stddev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
