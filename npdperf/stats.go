package main

import (
	"fmt"
	"math"

	"npdbench/internal/obs"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p95 over 40 samples rests on two values and is noise.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks. It refuses, with an error, when
// fewer than minBeyond samples lie beyond the percentile. xs is not
// modified.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if beyond := float64(n) * (100 - p) / 100; p > 50 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %.1f", p, minBeyond, n, beyond)
	}
	return obs.Percentile(xs, p), nil
}

// median returns the 50th percentile of xs (NaN for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return obs.Percentile(xs, 50)
}
