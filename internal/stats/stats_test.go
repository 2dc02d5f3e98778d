package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || !almost(s.Mean, 5) {
		t.Errorf("summary = %+v", s)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if !almost(s.StdDev, math.Sqrt(32.0/7)) {
		t.Errorf("sd = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if !almost(s.Median, 4.5) {
		t.Errorf("median = %v", s.Median)
	}
	if s.N != 8 {
		t.Errorf("n = %d", s.N)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.CI95() != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	one := Summarize([]float64{3})
	if one.Mean != 3 || one.StdDev != 0 || one.Median != 3 || one.CI95() != 0 {
		t.Errorf("singleton summary = %+v", one)
	}
}

func TestCI95(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	want := 1.96 * s.StdDev / 2 // sqrt(4) = 2
	if !almost(s.CI95(), want) {
		t.Errorf("CI95 = %v, want %v", s.CI95(), want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile not 0")
	}
	if Quantile([]float64{7}, 0.3) != 7 {
		t.Error("singleton quantile wrong")
	}
}

// Property: the online accumulator agrees with the two-pass computation.
func TestAccumulatorMatchesTwoPassProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, int(n)%50+2)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		var acc Accumulator
		sum := 0.0
		for _, x := range xs {
			acc.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(xs)-1)
		return acc.n == len(xs) &&
			math.Abs(acc.Mean()-mean) < 1e-6 &&
			math.Abs(acc.Variance()-variance) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.n != 0 || a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Errorf("zero accumulator: %+v", a)
	}
	a.Add(5)
	if a.Variance() != 0 {
		t.Error("variance of one sample not 0")
	}
}
