package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
// A tail percentile resting on fewer samples is one or two outliers,
// not a property of the system.
const minBeyond = 10

// Percentile returns the p-quantile (0.5 ≤ p < 1) of xs by nearest
// rank, lowered as far as needed to keep at least minBeyond samples
// above it, but never below the median. It also returns the quantile
// actually reported, so callers can state it. With fewer than
// 2·minBeyond samples every tail percentile is the median.
func Percentile(xs []float64, p float64) (v, used float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p * float64(n))) // 1-based rank
	if lim := n - minBeyond; k > lim {
		k = lim
	}
	if med := int(math.Ceil(0.5 * float64(n))); k < med {
		k = med
	}
	if k < 1 {
		k = 1
	}
	return s[k-1], float64(k) / float64(n)
}

// Median returns the middle of xs (the mean of the two middle values
// for an even count).
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Tally counts operations — requests, batches, run stages — attempted
// and failed over a run.
type Tally struct {
	Attempted, Failed int
}

// Record counts one operation; err != nil marks it failed.
func (t *Tally) Record(err error) {
	t.Attempted++
	if err != nil {
		t.Failed++
	}
}

// Merge adds another tally's counts.
func (t *Tally) Merge(o Tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
}
