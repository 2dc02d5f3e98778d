package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.GetGauge("depth")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("Value = %d, want 7", g.Value())
	}
	g.SetMax(5) // below current: no-op
	if g.Value() != 7 {
		t.Errorf("SetMax lowered the gauge to %d", g.Value())
	}
	g.SetMax(12)
	if g.Value() != 12 {
		t.Errorf("SetMax = %d, want 12", g.Value())
	}
	if r.GetGauge("depth") != g {
		t.Error("GetGauge not stable for same name")
	}
}

func TestGaugeSetMaxConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.GetGauge("hw")
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				g.SetMax(int64(w*per + i))
			}
		}()
	}
	wg.Wait()
	if g.Value() != goroutines*per {
		t.Errorf("high watermark = %d, want %d", g.Value(), goroutines*per)
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.GetHistogramBuckets("lat", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-52.65) > 1e-9 {
		t.Errorf("Sum = %v", got)
	}
	s := r.Snapshot().Histograms["lat"]
	// Bucket semantics are le: an observation equal to a bound lands in it.
	want := []int64{2, 1, 1, 1}
	for i, c := range want {
		if s.Counts[i] != c {
			t.Errorf("bucket %d = %d, want %d (%v)", i, s.Counts[i], c, s.Counts)
		}
	}
	if s.Count != 5 || s.Mean() != 52.65/5 {
		t.Errorf("stats = %+v", s)
	}
	// Quantiles interpolate within buckets and clamp the +Inf overflow to
	// the last finite bound.
	if q := s.Quantile(0.99); q != 10 {
		t.Errorf("p99 = %v, want clamp to 10", q)
	}
	if q := s.Quantile(0.5); q <= 0 || q > 1 {
		t.Errorf("p50 = %v out of its bucket", q)
	}
	if empty := (HistogramStats{}); empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram stats must read as zero")
	}
}

// bucketWidthAt returns the width of the bucket containing v — the maximum
// error Quantile's linear interpolation can commit for values inside the
// finite buckets.
func bucketWidthAt(bounds []float64, v float64) float64 {
	lo := 0.0
	for _, b := range bounds {
		if v <= b {
			return b - lo
		}
		lo = b
	}
	return math.Inf(1)
}

// TestHistogramQuantileUniform feeds a known uniform distribution and
// requires every estimated quantile to land within one bucket width of the
// true value — the estimator's accuracy contract.
func TestHistogramQuantileUniform(t *testing.T) {
	r := NewRegistry()
	h := r.GetHistogramBuckets("u", LatencyBuckets)
	const n = 100000
	for i := 0; i < n; i++ {
		// Deterministic uniform over (0, 1): true q-quantile is q.
		h.Observe((float64(i) + 0.5) / n)
	}
	s := r.Snapshot().Histograms["u"]
	for _, q := range []float64{0.10, 0.50, 0.90, 0.99, 0.999} {
		got := s.Quantile(q)
		width := bucketWidthAt(s.Bounds, q)
		if math.Abs(got-q) > width {
			t.Errorf("uniform p%g = %v, want %v ± bucket width %v", q*100, got, q, width)
		}
	}
	if mean := s.Mean(); math.Abs(mean-0.5) > 1e-6 {
		t.Errorf("uniform mean = %v, want 0.5", mean)
	}
}

// TestHistogramQuantileExponential does the same for a heavy-ish-tailed
// exponential distribution (the shape request latencies actually take): the
// true quantile of Exp(λ) is -ln(1-q)/λ.
func TestHistogramQuantileExponential(t *testing.T) {
	r := NewRegistry()
	h := r.GetHistogramBuckets("e", LatencyBuckets)
	const (
		n      = 200000
		lambda = 100.0 // mean 10ms — a plausible service latency
	)
	for i := 0; i < n; i++ {
		// Inverse-CDF sampling on a deterministic uniform grid.
		u := (float64(i) + 0.5) / n
		h.Observe(-math.Log(1-u) / lambda)
	}
	s := r.Snapshot().Histograms["e"]
	for _, q := range []float64{0.50, 0.90, 0.99, 0.999} {
		truth := -math.Log(1-q) / lambda
		got := s.Quantile(q)
		width := bucketWidthAt(s.Bounds, truth)
		if math.Abs(got-truth) > width {
			t.Errorf("exp p%g = %v, want %v ± bucket width %v", q*100, got, truth, width)
		}
	}
}

// TestHistogramQuantileMonotone: quantile estimates must never decrease as q
// grows, including across the +Inf overflow clamp.
func TestHistogramQuantileMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.GetHistogramBuckets("m", []float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0005, 0.004, 0.004, 0.05, 0.5, 3, 40} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["m"]
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.001 {
		got := s.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile at lower q = %v", q, got, prev)
		}
		prev = got
	}
	if got := s.Quantile(1); got != 1 {
		t.Errorf("p100 = %v, want clamp to last finite bound 1", got)
	}
}

func TestLatencyBucketsSane(t *testing.T) {
	if len(LatencyBuckets) == 0 {
		t.Fatal("no latency buckets")
	}
	prev := 0.0
	for _, b := range LatencyBuckets {
		if b <= prev {
			t.Fatalf("bounds not strictly increasing at %v (prev %v)", b, prev)
		}
		prev = b
	}
	if LatencyBuckets[0] > 0.0001 || prev < 10 {
		t.Errorf("latency range [%v, %v] does not cover 100µs..10s", LatencyBuckets[0], prev)
	}
}

func TestHistogramFirstRegistrationWins(t *testing.T) {
	r := NewRegistry()
	h := r.GetHistogramBuckets("h", []float64{1, 2})
	if again := r.GetHistogramBuckets("h", []float64{5}); again != h {
		t.Error("re-registration replaced the histogram")
	}
	if def := r.GetHistogram("d"); len(def.bounds) != len(DefaultBuckets) {
		t.Errorf("default bounds = %v", def.bounds)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.GetHistogram("c")
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveDuration(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Errorf("Count = %d", h.Count())
	}
	if got, want := h.Sum(), float64(goroutines*per)*0.001; math.Abs(got-want) > 1e-6 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestSnapshotTextIncludesGaugesAndHistograms(t *testing.T) {
	r := NewRegistry()
	r.GetGauge("g").Set(42)
	r.GetHistogramBuckets("h", []float64{1}).Observe(0.5)
	text := snapshotText(r.Snapshot())
	if !strings.Contains(text, "gauge   g 42") {
		t.Errorf("gauge line missing:\n%s", text)
	}
	if !strings.Contains(text, "histo   h count=1") {
		t.Errorf("histogram line missing:\n%s", text)
	}
	g := r.GetGauge("g")
	r.Reset()
	if g.Value() != 0 || r.GetHistogramBuckets("h", nil).Count() != 0 {
		t.Error("Reset did not zero gauges/histograms")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.GetCounter("core.pipeline.records").Add(3)
	r.GetGauge("core.tail.buffered.entries").Set(9)
	h := r.GetHistogramBuckets("eval.point.seconds", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(3)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		"# TYPE core_pipeline_records counter",
		"core_pipeline_records 3",
		"# TYPE core_tail_buffered_entries gauge",
		"core_tail_buffered_entries 9",
		"# TYPE eval_point_seconds histogram",
		`eval_point_seconds_bucket{le="0.5"} 1`,
		`eval_point_seconds_bucket{le="1"} 2`,
		`eval_point_seconds_bucket{le="+Inf"} 3`,
		"eval_point_seconds_sum 4",
		"eval_point_seconds_count 3",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"eval.points.completed": "eval_points_completed",
		"already_fine:x":        "already_fine:x",
		"weird-name %":          "weird_name__",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHandlerNegotiation(t *testing.T) {
	r := NewRegistry()
	r.GetCounter("hits").Add(7)
	cases := []struct {
		name, target, accept string
		wantProm             bool
	}{
		{"plain", "/debug/metrics", "", false},
		{"browser", "/debug/metrics", "text/html", false},
		{"prom-accept", "/debug/metrics", "text/plain;version=0.0.4", true},
		{"openmetrics", "/debug/metrics", "application/openmetrics-text", true},
		{"query", "/debug/metrics?format=prometheus", "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("GET", tc.target, nil)
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			rec := httptest.NewRecorder()
			r.Handler().ServeHTTP(rec, req)
			body := rec.Body.String()
			ct := rec.Header().Get("Content-Type")
			if tc.wantProm {
				if !strings.Contains(ct, "version=0.0.4") {
					t.Errorf("Content-Type = %q", ct)
				}
				if !strings.Contains(body, "# TYPE hits counter") {
					t.Errorf("body = %q", body)
				}
			} else {
				if strings.Contains(ct, "version=0.0.4") {
					t.Errorf("Content-Type = %q", ct)
				}
				if !strings.Contains(body, "counter hits 7") {
					t.Errorf("body = %q", body)
				}
			}
		})
	}
}
