// Package stats provides the small statistical toolkit the experiment
// harness uses: summaries (mean, standard deviation, extrema), speedup
// helpers, and human-readable byte-size formatting for table axes.
package stats

import (
	"fmt"
	"math"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero value.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Speedup returns baseline/improved — the convention the paper uses
// ("RVMA outperforms ... by 4.4X" means tRDMA/tRVMA = 4.4).
func Speedup(baseline, improved float64) float64 {
	if improved == 0 {
		return math.Inf(1)
	}
	return baseline / improved
}

// Reduction returns the fractional latency reduction (baseline-improved)/
// baseline, the paper's "65.8% reduction in latency" metric.
func Reduction(baseline, improved float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - improved) / baseline
}

// FormatBytes renders a byte count with a binary-unit suffix (axis labels).
func FormatBytes(n int) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// FormatGbps renders a link speed the way the paper's figures label them.
func FormatGbps(gbps float64) string {
	if gbps >= 1000 {
		return fmt.Sprintf("%.3gTbps", gbps/1000)
	}
	return fmt.Sprintf("%.4gGbps", gbps)
}
