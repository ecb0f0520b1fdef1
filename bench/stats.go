package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p ≤
// 100) of sorted: the smallest sample with at least p% of the samples
// at or below it. No interpolation and no bucket grid — the value is
// always one of the recorded samples. An empty input yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted)) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns vs sorted ascending without touching the input.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median is the interpolated median (the mean of the two middle
// samples for an even count), matching Python's statistics.median.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// iqr is the distance between the first and third quartile, computed
// the way Python's statistics.quantiles(vs, n=4) does (the exclusive
// method: positions at i·(len+1)/4, linearly interpolated), so a
// spread printed here equals one recomputed from the result file with
// the standard library of the tooling around the benchmark. Fewer than
// two samples have no spread.
func iqr(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := sortedCopy(vs)
	q := func(i int) float64 {
		j := i * (len(s) + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(3) - q(1)
}
