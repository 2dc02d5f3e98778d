// Package stats provides the small descriptive-statistics toolkit the
// evaluation harness uses: summaries (mean, deviation, quantiles), an
// online accumulator, and normal-approximation confidence intervals for
// replicated experiment runs.
package stats

import (
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	// N is the sample size.
	N int
	// Mean is the arithmetic mean (0 for empty samples).
	Mean float64
	// StdDev is the sample standard deviation (n-1 denominator; 0 when
	// N < 2).
	StdDev float64
	// Min and Max are the extremes (0 for empty samples).
	Min, Max float64
	// Median is the 50th percentile.
	Median float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	s.Mean = acc.Mean()
	s.StdDev = acc.StdDev()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	return s
}

// CI95 returns the normal-approximation 95% confidence half-width for the
// mean (1.96·sd/√n; 0 when N < 2). For the handful of replicas experiments
// use, this slightly understates the Student-t interval — documented, and
// fine for the qualitative shape checks it supports.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample using linear interpolation. It panics on unsorted input only in
// the sense of returning nonsense; callers sort first (Summarize does).
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Accumulator computes mean and variance online (Welford's algorithm),
// without retaining samples. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation in.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the running mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the sample variance (n-1 denominator; 0 when N < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }
