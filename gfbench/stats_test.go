package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %g, want 4", got)
	}
	if got := quantile(xs, 0); got != 1 {
		t.Errorf("min = %g, want 1", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}

// TestTailRule checks the tail-percentile rule: the highest candidate
// percentile with at least ten samples beyond it, none below 40 samples.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		pct  float64
		want bool
	}{
		{n: 9},
		{n: 39},
		{n: 40, pct: 75, want: true},
		{n: 99, pct: 75, want: true},
		{n: 100, pct: 90, want: true},
		{n: 199, pct: 90, want: true},
		{n: 200, pct: 95, want: true},
		{n: 1000, pct: 99, want: true},
		{n: 10000, pct: 99.9, want: true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		pct, v, ok := tail(xs)
		if ok != tc.want || pct != tc.pct {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", tc.n, pct, ok, tc.pct, tc.want)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%g = %g leaves %d samples beyond it", tc.n, pct, v, beyond)
			}
		}
	}
}

func TestAllFinite(t *testing.T) {
	if !allFinite([]float64{0, -1, 2}) {
		t.Error("finite values reported non-finite")
	}
	if allFinite([]float64{1, math.NaN()}) || allFinite([]float64{math.Inf(-1)}) {
		t.Error("NaN or Inf reported finite")
	}
}
