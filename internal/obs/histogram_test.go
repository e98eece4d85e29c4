package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	if len(b) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(b), len(want))
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	if !sort.Float64sAreSorted(DefBuckets) || !sort.Float64sAreSorted(SizeBuckets) {
		t.Fatal("default ladders not ascending")
	}
	for _, bad := range []func(){
		func() { ExpBuckets(0, 2, 4) },
		func() { ExpBuckets(1, 1, 4) },
		func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad ExpBuckets args did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestHistogramNilNoOp(t *testing.T) {
	var h *Histogram
	h.Observe(1.5) // must not panic
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram has non-zero totals")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P99 != 0 {
		t.Fatalf("nil histogram snapshot = %+v, want zero", s)
	}
}

// TestBucketBoundaries pins the le (inclusive upper bound) semantics:
// an observation exactly on a bound lands in that bound's bucket, just
// above it lands in the next, and anything beyond the last bound lands
// in the +Inf overflow bucket.
func TestBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(1)          // bucket 0 (le=1)
	h.Observe(1.5)        // bucket 1 (le=2)
	h.Observe(2)          // bucket 1 (le=2)
	h.Observe(4)          // bucket 2 (le=4)
	h.Observe(4.1)        // overflow
	h.Observe(0)          // bucket 0
	h.Observe(math.NaN()) // dropped
	s := h.Snapshot()
	wantCounts := []int64{2, 2, 1, 1}
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("got %d buckets, want %d", len(s.Counts), len(wantCounts))
	}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6 (NaN dropped)", s.Count)
	}
	if math.Abs(s.Sum-12.6) > 1e-9 {
		t.Fatalf("sum = %g, want 12.6", s.Sum)
	}
}

// TestQuantileAccuracy checks the interpolated quantile estimate
// against a reference sort on random inputs: with exponential base-2
// buckets the estimate must be within one bucket (a factor of two) of
// the exact order statistic.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram(DefBuckets)
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform over [10µs, 10s] — spans many buckets like real
		// latency data.
		vals[i] = 1e-5 * math.Pow(10, rng.Float64()*6)
		h.Observe(vals[i])
	}
	sort.Float64s(vals)
	s := h.Snapshot()
	for _, tc := range []struct {
		q   float64
		got float64
	}{{0.50, s.P50}, {0.95, s.P95}, {0.99, s.P99}} {
		exact := vals[int(tc.q*float64(n))-1]
		if tc.got < exact/2 || tc.got > exact*2 {
			t.Errorf("q=%.2f: estimate %g not within 2x of exact %g", tc.q, tc.got, exact)
		}
	}
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	wantSum := 0.0
	for _, v := range vals {
		wantSum += v
	}
	if math.Abs(s.Sum-wantSum)/wantSum > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

func TestQuantileEdges(t *testing.T) {
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile not 0")
	}
	h := NewHistogram([]float64{1, 2})
	for i := 0; i < 10; i++ {
		h.Observe(100) // everything overflows
	}
	// The overflow bucket's estimate (the last finite bound, 2) lies
	// below every observation; the clamp reports the observed value.
	if q := h.Snapshot().Quantile(0.5); q != 100 {
		t.Fatalf("overflow quantile = %g, want the observed 100", q)
	}
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(0.5)
	s := h2.Snapshot()
	if q := s.Quantile(0); q < 0 || q > 1 {
		t.Fatalf("q=0 -> %g, want within first bucket", q)
	}
	if q := s.Quantile(1); q < 0 || q > 1 {
		t.Fatalf("q=1 -> %g, want within first bucket", q)
	}
	if q := s.Quantile(-1); q != s.Quantile(0) {
		t.Fatalf("q<0 not clamped: %g", q)
	}
	if q := s.Quantile(2); q != s.Quantile(1) {
		t.Fatalf("q>1 not clamped: %g", q)
	}
}

// TestQuantileSingleSample pins every quantile of a one-sample
// histogram to the sample itself: the bucket estimate alone reports
// the bucket's upper bound (a 1.074 s build printed as p50=2.097).
func TestQuantileSingleSample(t *testing.T) {
	h := NewHistogram(DefBuckets)
	h.Observe(1.074)
	s := h.Snapshot()
	for _, got := range []float64{s.P50, s.P95, s.P99} {
		if got != 1.074 {
			t.Fatalf("p50/p95/p99 = %g/%g/%g, want the sample 1.074", s.P50, s.P95, s.P99)
		}
	}
}

// TestQuantileWithinObservedRange checks the clamp on a spread sample:
// every quantile lies in [Min, Max], and those are the true extremes.
func TestQuantileWithinObservedRange(t *testing.T) {
	h := NewHistogram(DefBuckets)
	for _, v := range []float64{0.3, 0.31, 0.33, 0.35} { // one bucket: (0.262, 0.524]
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Min != 0.3 || s.Max != 0.35 {
		t.Fatalf("min/max = %g/%g, want 0.3/0.35", s.Min, s.Max)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
		if v := s.Quantile(q); v < s.Min || v > s.Max {
			t.Errorf("q=%g -> %g, outside the observed [%g, %g]", q, v, s.Min, s.Max)
		}
	}
}

// TestConcurrentObserve hammers one histogram from many goroutines;
// under -race this is the data-race check for the hot-path telemetry,
// and the totals prove no observation is lost.
func TestConcurrentObserve(t *testing.T) {
	h := NewHistogram(DefBuckets)
	const workers = 16
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w+1) * 1e-4)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	wantSum := 0.0
	for w := 1; w <= workers; w++ {
		wantSum += float64(w) * 1e-4 * perWorker
	}
	if math.Abs(h.Sum()-wantSum)/wantSum > 1e-9 {
		t.Fatalf("sum = %g, want %g (CAS loop lost updates)", h.Sum(), wantSum)
	}
	var inBuckets int64
	for _, c := range h.Snapshot().Counts {
		inBuckets += c
	}
	if inBuckets != workers*perWorker {
		t.Fatalf("bucket total = %d, want %d", inBuckets, workers*perWorker)
	}
	if s := h.Snapshot(); s.Min != 1e-4 || s.Max != float64(workers)*1e-4 {
		t.Fatalf("min/max = %g/%g, want %g/%g (CAS loop lost an extreme)", s.Min, s.Max, 1e-4, float64(workers)*1e-4)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}
