package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so sorting matters
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p95 leaves 5% beyond it: 199 samples give 9.95 < 10, 200 give 10.
	if _, err := percentile(seq(199), 95); err == nil {
		t.Fatal("p95 over 199 samples: want refusal, got a value")
	}
	v, err := percentile(seq(200), 95)
	if err != nil {
		t.Fatalf("p95 over 200 samples: %v", err)
	}
	if want := 190.05; math.Abs(v-want) > 1e-9 {
		t.Fatalf("p95 of 1..200 = %v, want %v", v, want)
	}
	if _, err := percentile(seq(999), 99); err == nil {
		t.Fatal("p99 over 999 samples: want refusal")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("p50 of nothing: want an error")
	}
}

func TestMedian(t *testing.T) {
	if m := median(seq(4)); m != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", m)
	}
	if m := median([]float64{3, 1, math.Inf(1)}); m != 3 {
		t.Fatalf("median with one failure = %v, want 3", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
	xs := []float64{5, 1, 3}
	median(xs)
	if xs[0] != 5 || xs[1] != 1 {
		t.Fatal("median reordered its input")
	}
}
