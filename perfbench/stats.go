package main

import (
	"math"
	"slices"
	"sort"
)

// quantile returns the q-quantile of v (linear interpolation between
// closest ranks), sorting v in place. NaN for an empty slice.
func quantile[T float32 | float64 | int64](v []T, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo >= len(v)-1 {
		return float64(v[len(v)-1])
	}
	frac := pos - float64(lo)
	return float64(v[lo])*(1-frac) + float64(v[lo+1])*frac
}

func median[T float32 | float64 | int64](v []T) float64 { return quantile(v, 0.5) }

// histQuantile interpolates the q-quantile of a cumulative histogram
// given as ascending (upper bound, cumulative count) pairs with log2
// buckets: a bucket with upper bound u spans [u/2, u) (the first one
// [0, u)). The last pair's count is the total.
func histQuantile(bounds, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return math.NaN()
	}
	rank := q * cum[len(cum)-1]
	i := sort.Search(len(cum), func(i int) bool { return cum[i] >= rank })
	if i >= len(bounds) {
		i = len(bounds) - 1
	}
	var prev, lo float64
	if i > 0 {
		prev = cum[i-1]
		lo = bounds[i] / 2
	}
	hi := bounds[i]
	if math.IsInf(hi, 1) {
		return bounds[i-1]
	}
	n := cum[i] - prev
	if n <= 0 {
		return hi
	}
	return lo + (hi-lo)*(rank-prev)/n
}
