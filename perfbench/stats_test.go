package main

import (
	"errors"
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Percentile must sort
	}
	return xs
}

func TestPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		p       float64
		want    float64
		wantQ   float64
		comment string
	}{
		{1000, 0.99, 990, 0.99, "enough samples: the true p99, 10 beyond"},
		{5000, 0.99, 4950, 0.99, "50 beyond"},
		{500, 0.99, 490, 0.98, "lowered to keep 10 beyond"},
		{115, 0.9, 104, 104.0 / 115, "ApplyDelta: p90 of 115 batches lowered by one rank"},
		{100, 0.9, 90, 0.9, "exactly 10 beyond p90"},
		{3, 0.99, 2, 2.0 / 3, "too few for any tail: the median"},
		{15, 0.9, 8, 8.0 / 15, "never below the median"},
		{1000, 0.5, 500, 0.5, "the median needs nothing beyond"},
	} {
		xs := seq(tc.n)
		v, q := Percentile(xs, tc.p)
		if v != tc.want || math.Abs(q-tc.wantQ) > 1e-12 {
			t.Errorf("%s: Percentile(n=%d, %v) = %v at q=%v, want %v at q=%v", tc.comment, tc.n, tc.p, v, q, tc.want, tc.wantQ)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		aboveMedian := math.Round(q*float64(tc.n)) > math.Ceil(float64(tc.n)/2)
		if aboveMedian && beyond < minBeyond {
			t.Errorf("%s: only %d samples beyond the reported percentile", tc.comment, beyond)
		}
	}
	if v, _ := Percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("Percentile(nil) = %v, want NaN", v)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v", got)
	}
	if got := Mean([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var a Tally
	a.Record(nil)
	a.Record(errors.New("status 503"))
	a.Record(nil)
	var b Tally
	b.Record(errors.New("stage error"))
	a.Merge(b)
	if a.Attempted != 4 || a.Failed != 2 {
		t.Errorf("tally = %+v, want 4 attempted, 2 failed", a)
	}
}
