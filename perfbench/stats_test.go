package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},  // 10 samples above the 90th
		{99, 0.9, 0, false},   // 9 above: too few
		{120, 0.9, 108, true}, // a closed-loop list
		{21, 0.5, 11, true},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
	} {
		got, n, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(%d samples, %g): err = %v, want ok=%v", tc.n, tc.p, err, tc.ok)
			continue
		}
		if n != tc.n {
			t.Errorf("percentile(%d samples, %g) reports %d samples", tc.n, tc.p, n)
		}
		if tc.ok && got != tc.want {
			t.Errorf("percentile(%d samples, %g) = %g, want %g", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
}

func TestPerTupleNormalisesByLineitems(t *testing.T) {
	// Two queries over a 250-row table scanned 500 tuples.
	if got := perTuple(1000, 2, 250); got != 2 {
		t.Errorf("perTuple = %g, want 2", got)
	}
	if got := perTuple(5, 0, 250); got != 0 {
		t.Errorf("perTuple with no queries = %g, want 0", got)
	}
}

func TestCapacityInterpolatesTheLimitCrossing(t *testing.T) {
	rates := []float64{10, 20, 30}
	for _, tc := range []struct {
		p90  []float64
		want float64
	}{
		{[]float64{1, 2, 4}, 25},   // crosses 3 halfway between 20 and 30
		{[]float64{1, 1, 2}, 30},   // never crosses: the top rate
		{[]float64{4, 5, 6}, 0},    // the lowest rate already misses
		{[]float64{1, 3, 9}, 20},   // meets the limit exactly at 20
		{[]float64{2, 4, 1}, 15},   // the first miss decides
		{[]float64{3, 3, 3}, 30.0}, // equal to the limit meets it
	} {
		if got := capacity(rates, tc.p90, 3); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("capacity(p90 %v) = %g, want %g", tc.p90, got, tc.want)
		}
	}
}
