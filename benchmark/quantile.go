package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is the benchmark's one quantile: exact nearest rank over raw
// samples — the smallest sample with at least ⌈p·n⌉ samples at or below it.
// sorted must be ascending and non-empty; 0 < p ≤ 1.
func quantile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// samples is a set of raw int64 measurements (nanoseconds, unless a caller
// says otherwise).
type samples []int64

func (s samples) sorted() []int64 {
	out := append([]int64(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the nearest-rank median; an empty set has none.
func (s samples) median() (int64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("median of no samples")
	}
	return quantile(s.sorted(), 0.5), nil
}

// tail returns the nearest-rank p-quantile for a tail percentile (p > 0.5),
// refusing it when fewer than minBeyond samples lie beyond its rank: one
// more or one fewer slow op would otherwise move the figure.
func (s samples) tail(p float64) (int64, error) {
	n := len(s)
	rank := int(math.Ceil(p * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	return quantile(s.sorted(), p), nil
}

func (s samples) sum() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}
