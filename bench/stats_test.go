package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1000, 1001, 2500, 30000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		ref := append([]float64(nil), xs...)
		sort.Float64s(ref)
		for _, p := range []float64{50, 90, 99} {
			got, err := percentile(xs, p)
			if err != nil {
				t.Fatalf("n=%d p%g: %v", n, p, err)
			}
			// Nearest rank: the smallest sample with at least p % of
			// the samples at or below it.
			rank := int(math.Ceil(p / 100 * float64(n)))
			if got != ref[rank-1] {
				t.Errorf("n=%d p%g = %v, sorted reference has %v at rank %d", n, p, got, ref[rank-1], rank)
			}
			atOrBelow := sort.SearchFloat64s(ref, math.Nextafter(got, math.Inf(1)))
			if float64(atOrBelow) < p/100*float64(n) {
				t.Errorf("n=%d p%g: only %d samples at or below it", n, p, atOrBelow)
			}
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	if _, err := percentile(xs, 99); err != nil {
		t.Errorf("p99 of 1000 has 10 beyond it and must be reported: %v", err)
	}
	if v, err := percentile(xs[:999], 99); err == nil {
		t.Errorf("p99 of 999 samples has 9 beyond it and must be refused, got %v", v)
	}
	if _, err := percentile(xs[:100], 99.9); err == nil {
		t.Error("p99.9 of 100 samples must be refused")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which the
// driver uses; the expected values below come from it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 1, 4, 2}, 1.5, 9.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 5, 5, 5}, 5, 5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
