package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: with fewer, one outlier more or less moves the
// figure by a whole sample and the number means little.
const minBeyond = 10

// ladder lists the percentiles a summary may report as its tail,
// highest first.
var ladder = []float64{99.9, 99, 95, 90, 75}

// Summary is a timing sample reduced to what the benchmark prints: the
// median, the highest ladder percentile with at least minBeyond samples
// beyond it, and the sample count behind both.
type Summary struct {
	N      int
	Median float64
	// TailPct is 0 when no ladder percentile is sampled well enough.
	TailPct float64
	Tail    float64
}

// Summarize reduces xs (any unit). xs is not modified.
func Summarize(xs []float64) Summary {
	s := sortedCopy(xs)
	out := Summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.Median = quantileSorted(s, 50)
	for _, p := range ladder {
		if beyond(len(s), p) >= minBeyond {
			out.TailPct, out.Tail = p, quantileSorted(s, p)
			break
		}
	}
	return out
}

// Percentile returns the p-th percentile of xs and whether it is
// sampled well enough to report: at least minBeyond samples above it
// (the median only needs one sample). An under-sampled percentile is
// flagged, never printed as a number.
func Percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	if p > 50 && beyond(len(xs), p) < minBeyond {
		return 0, false
	}
	return quantileSorted(sortedCopy(xs), p), true
}

// String renders the summary for the report, counts included.
func (s Summary) String() string {
	if s.N == 0 {
		return "no samples"
	}
	if s.TailPct == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d; no tail percentile has %d samples beyond)", s.Median, s.N, minBeyond)
	}
	return fmt.Sprintf("p50 %.4g, p%g %.4g (n=%d)", s.Median, s.TailPct, s.Tail, s.N)
}

// rank is the 1-based nearest-rank index of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above percentile p's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

func quantileSorted(s []float64, p float64) float64 { return s[rank(len(s), p)-1] }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantileSorted(sortedCopy(xs), 50)
}
