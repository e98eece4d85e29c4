package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a lock-free bucketed distribution: a fixed ladder of
// upper bounds plus an implicit +Inf overflow bucket, each backed by an
// atomic counter, with an atomically accumulated sum and the observed
// minimum and maximum. Observe is wait-free apart from the CAS loops on
// those three, allocates nothing, and is safe for any number of
// concurrent writers — the properties the hot paths (per-task
// latencies, sampled index queries) need.
//
// A nil *Histogram is a complete no-op, matching the package's nil-
// safety contract: instrumented code holds a histogram pointer
// unconditionally and never branches on whether telemetry is on beyond
// a single pointer comparison.
type Histogram struct {
	bounds []float64 // ascending upper bounds; bucket i counts v <= bounds[i]
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // math.Float64bits of the running sum
	min    atomic.Uint64 // math.Float64bits of the smallest observation (+Inf before any)
	max    atomic.Uint64 // math.Float64bits of the largest observation (-Inf before any)
}

// DefBuckets is the default bucket ladder: exponential, base 2, from
// 1µs to ~9 minutes when observations are in seconds. It spans index
// queries (sub-microsecond) through full diagram builds with a
// relative quantile error bounded by one factor-of-two bucket.
var DefBuckets = ExpBuckets(1e-6, 2, 30)

// SizeBuckets is the default ladder for count-valued observations
// (result sizes, batch sizes): powers of two from 1 to ~8M.
var SizeBuckets = ExpBuckets(1, 2, 24)

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and growing by factor. It panics on a non-positive start, a
// factor <= 1, or n < 1 — all wiring bugs.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (callers usually pass DefBuckets or SizeBuckets). The bounds
// slice is retained and must not be mutated.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. NaN observations are dropped — they would
// poison the sum while fitting no bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// The extremes move before the buckets do, so a snapshot that sees
	// this observation counted also sees it inside [min, max]. Each
	// loop retries its CAS only while v still beats the stored extreme.
	bits := math.Float64bits(v)
	for old := h.min.Load(); v < math.Float64frombits(old) && !h.min.CompareAndSwap(old, bits); old = h.min.Load() {
	}
	for old := h.max.Load(); v > math.Float64frombits(old) && !h.max.CompareAndSwap(old, bits); old = h.max.Load() {
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramSnapshot is the serializable point-in-time state of a
// histogram: totals, the observed range, estimated quantiles, and the
// raw buckets (Counts holds per-bucket counts, not cumulative; its last
// entry is the +Inf overflow bucket). Min and Max are 0 when Count is.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
}

// Snapshot captures the histogram's current state. Because bucket
// counters and the total are updated without a global lock, a snapshot
// taken mid-Observe may be off by in-flight observations; it is never
// torn within one counter.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.min.Load())
		s.Max = math.Float64frombits(h.max.Load())
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the bucket holding the q-th observation — the
// same estimator Prometheus's histogram_quantile uses — clamped into
// the observed [Min, Max], so a quantile never reports a value no
// observation came near (a one-sample histogram reports the sample).
// Returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	return min(max(s.bucketQuantile(q), s.Min), s.Max)
}

// bucketQuantile is the unclamped bucket estimate. Observations are
// assumed non-negative (the first bucket interpolates from zero); a
// quantile landing in the +Inf overflow bucket reports the largest
// finite bound.
func (s HistogramSnapshot) bucketQuantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(s.Bounds) {
			// Overflow bucket: no finite upper bound to interpolate to.
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(cum))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}
