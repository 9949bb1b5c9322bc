package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile for the
// percentile to mean anything; a workload too small for it is a bug in the
// benchmark, reported as an error rather than a noisy number.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and the
// sample count. It fails when fewer than minBeyond samples lie above it.
func percentile(xs []float64, p float64) (float64, int, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, n, fmt.Errorf("percentile p%g of %d samples", p*100, n)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if beyond := n - rank; beyond < minBeyond {
		return 0, n, fmt.Errorf("percentile p%g of %d samples leaves %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], n, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), for summaries too small for percentile's rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perTuple normalises a counter summed over queries by the tuples those
// queries scanned: every query reads all of the driving table's
// Dataset.Lineitems() rows.
func perTuple(total float64, queries, lineitems int) float64 {
	return ratio(total, float64(queries)*float64(lineitems))
}
