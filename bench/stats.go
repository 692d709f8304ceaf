package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an unsorted sample: the
// smallest value with at least p of the sample at or below it. An empty
// sample has no percentiles and reports 0.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// median averages the two middle values of an even-sized sample, so the
// median across five or six rounds is what a reader expects.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), because
// that is the function the spread of this benchmark is judged with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	if n < 2 {
		if n == 1 {
			return values[0], values[0], values[0]
		}
		return 0, 0, 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 when the median is 0.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// ratio is a/b with 0 for an empty base, so a layer that did no work
// reports 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
