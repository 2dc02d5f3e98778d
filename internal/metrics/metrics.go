// Package metrics provides tiny, dependency-free runtime instrumentation
// for the pipeline's hot layers: atomic counters, gauges and histograms
// registered by name in a Registry, a sorted text snapshot for logs and
// CLIs, and an http.Handler suitable for a /debug/metrics endpoint.
//
// Every metric is safe for concurrent use and designed to sit on hot paths:
// call sites hold the *Counter / *Histogram returned by a one-time lookup
// instead of resolving the name per event.
//
//	var processed = metrics.GetCounter("core.tail.records")
//	...
//	processed.Add(int64(len(records)))
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be zero; negative deltas are not meaningful but are not
// rejected, to keep the hot path branch-free).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways (buffer depths,
// pool sizes, high watermarks).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v exceeds the current value — a lock-free
// high-watermark update.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultBuckets are the histogram bucket upper bounds used when none are
// given: exponential from 1ms to 100s (in seconds), suited to the
// point-duration spread the evaluation harness records.
var DefaultBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// LatencyBuckets are histogram bounds for request-latency histograms (in
// seconds): roughly exponential from 100µs to 10s, fine enough around the
// single-digit-millisecond range that p99/p999 of an in-process HTTP service
// resolve to sub-bucket-width error instead of collapsing into one bucket.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into cumulative buckets with fixed upper
// bounds, plus a total count and sum. Observations are lock-free; bounds are
// immutable after creation.
type Histogram struct {
	bounds  []float64      // sorted upper bounds; implicit +Inf last
	counts  []atomic.Int64 // len(bounds)+1, non-cumulative per bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveWeighted(v, 1) }

// ObserveDuration records a duration in seconds — the conventional unit for
// time histograms.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveWeighted records n observations of value v in one update — the
// hot-path form for samplers that time every Nth event and account the
// untimed ones to the measured value. Count stays exact (it advances by n);
// the distribution becomes an estimate weighted by the sampled values.
// n <= 0 is a no-op.
func (h *Histogram) ObserveWeighted(v float64, n int64) {
	if n <= 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.counts[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry is a named set of counters, gauges, and histograms. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// GetCounter returns the counter registered under name, creating it on first
// use. The returned pointer is stable; cache it at the call site.
func (r *Registry) GetCounter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// GetGauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) GetGauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GetHistogram returns the histogram registered under name, creating it with
// DefaultBuckets on first use. Use GetHistogramBuckets to control the
// bounds; the first registration wins.
func (r *Registry) GetHistogram(name string) *Histogram {
	return r.GetHistogramBuckets(name, nil)
}

// GetHistogramBuckets returns the histogram registered under name, creating
// it with the given bucket upper bounds (nil or empty means DefaultBuckets)
// on first use. An already-registered histogram keeps its original bounds.
func (r *Registry) GetHistogramBuckets(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// HistogramStats is a histogram's state at snapshot time: the bucket upper
// bounds, per-bucket (non-cumulative) counts with the +Inf overflow bucket
// last, and the total count and sum.
type HistogramStats struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Mean returns the average observed value (zero when empty).
func (s HistogramStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts,
// interpolating linearly inside the containing bucket. Values beyond the
// last finite bound clamp to it.
func (s HistogramStats) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket: clamp to the last finite bound
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot is a point-in-time copy of a registry's values.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramStats
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramStats, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramStats{
			Bounds: h.bounds,
			Counts: make([]int64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteText renders the snapshot as sorted "name value" lines, counters
// first, e.g.:
//
//	counter clf.scanner.malformed 3
//	gauge   core.tail.buffered.entries 117
//	histo   eval.point.seconds count=40 mean=0.31 p50=0.28 p95=0.52 p99=0.61
func (s Snapshot) WriteText(w io.Writer) error {
	var sb strings.Builder
	sortedNames := func(m map[string]int64) []string {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	for _, name := range sortedNames(s.Counters) {
		fmt.Fprintf(&sb, "counter %s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedNames(s.Gauges) {
		fmt.Fprintf(&sb, "gauge   %s %d\n", name, s.Gauges[name])
	}
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		fmt.Fprintf(&sb, "histo   %s count=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g\n",
			name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// promName maps a metric name to the Prometheus exposition charset:
// [a-zA-Z0-9_:], everything else becomes '_' (so "eval.points.completed"
// exports as "eval_points_completed").
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == ':':
			return r
		default:
			return '_'
		}
	}, name)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single series, histograms
// as classic cumulative <name>_bucket{le="..."} series with _sum and _count.
// Labeled registry keys built with WithLabels ("name{k=\"v\"}") are split
// back into metric name and label set; every series of one base name shares
// a single TYPE line, and histogram buckets merge "le" into the series
// labels.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var sb strings.Builder
	keysOf := func(m map[string]int64) []string {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		return names
	}
	for _, group := range groupedKeys(keysOf(s.Counters)) {
		base, _ := splitLabels(group[0])
		n := promName(base)
		fmt.Fprintf(&sb, "# TYPE %s counter\n", n)
		for _, key := range group {
			_, labels := splitLabels(key)
			fmt.Fprintf(&sb, "%s %d\n", promSeries(n, promLabels(labels)), s.Counters[key])
		}
	}
	for _, group := range groupedKeys(keysOf(s.Gauges)) {
		base, _ := splitLabels(group[0])
		n := promName(base)
		fmt.Fprintf(&sb, "# TYPE %s gauge\n", n)
		for _, key := range group {
			_, labels := splitLabels(key)
			fmt.Fprintf(&sb, "%s %d\n", promSeries(n, promLabels(labels)), s.Gauges[key])
		}
	}
	histoKeys := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		histoKeys = append(histoKeys, name)
	}
	for _, group := range groupedKeys(histoKeys) {
		base, _ := splitLabels(group[0])
		n := promName(base)
		fmt.Fprintf(&sb, "# TYPE %s histogram\n", n)
		for _, key := range group {
			_, labels := splitLabels(key)
			l := promLabels(labels)
			withLE := func(le string) string {
				if l == "" {
					return le
				}
				return l + "," + le
			}
			h := s.Histograms[key]
			cum := int64(0)
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				fmt.Fprintf(&sb, "%s %d\n",
					promSeries(n+"_bucket", withLE(fmt.Sprintf("le=%q", trimFloat(bound)))), cum)
			}
			fmt.Fprintf(&sb, "%s %d\n", promSeries(n+"_bucket", withLE(`le="+Inf"`)), h.Count)
			fmt.Fprintf(&sb, "%s %g\n", promSeries(n+"_sum", l), h.Sum)
			fmt.Fprintf(&sb, "%s %d\n", promSeries(n+"_count", l), h.Count)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// trimFloat formats a bucket bound the way Prometheus clients do: shortest
// representation that round-trips.
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Handler serves the registry's current snapshot — mount it at
// /debug/metrics. The format is negotiated per request: a Prometheus scrape
// (an Accept header naming the 0.0.4 text exposition format or OpenMetrics,
// or an explicit ?format=prometheus) receives the Prometheus rendering;
// everything else (browsers, curl) receives the human-oriented text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := r.Snapshot()
		if wantsPrometheus(req) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			s.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.WriteText(w)
	})
}

// wantsPrometheus reports whether the request negotiates the Prometheus
// exposition format.
func wantsPrometheus(req *http.Request) bool {
	if req.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := req.Header.Get("Accept")
	return strings.Contains(accept, "version=0.0.4") ||
		strings.Contains(accept, "openmetrics")
}

// Default is the process-wide registry the package-level helpers use.
var Default = NewRegistry()

// GetCounter returns a counter from the Default registry.
func GetCounter(name string) *Counter { return Default.GetCounter(name) }

// GetGauge returns a gauge from the Default registry.
func GetGauge(name string) *Gauge { return Default.GetGauge(name) }

// GetHistogram returns a DefaultBuckets histogram from the Default registry.
func GetHistogram(name string) *Histogram { return Default.GetHistogram(name) }

// Handler serves the Default registry.
func Handler() http.Handler { return Default.Handler() }
