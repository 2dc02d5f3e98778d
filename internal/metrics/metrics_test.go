package metrics

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// Reset zeroes every registered metric (the registry keeps its names, so
// cached pointers stay valid).
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sumBits.Store(0)
	}
}

// snapshotText renders s as WriteText does.
func snapshotText(s Snapshot) string {
	var sb strings.Builder
	s.WriteText(&sb)
	return sb.String()
}

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.GetCounter("x")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
	if r.GetCounter("x") != c {
		t.Error("GetCounter not stable for same name")
	}
	if r.GetCounter("y") == c {
		t.Error("distinct names share a counter")
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mix get-or-create with increments to race the registry too.
			for i := 0; i < per; i++ {
				r.GetCounter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.GetCounter("shared").Value(); got != goroutines*per {
		t.Errorf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	r.GetCounter("b").Add(2)
	r.GetCounter("a").Add(1)
	s := r.Snapshot()
	if s.Counters["a"] != 1 || s.Counters["b"] != 2 {
		t.Errorf("snapshot counters = %v", s.Counters)
	}
	text := snapshotText(s)
	ia, ib := strings.Index(text, "counter a 1"), strings.Index(text, "counter b 2")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("snapshot text not sorted:\n%s", text)
	}
	c := r.GetCounter("a")
	r.Reset()
	if c.Value() != 0 {
		t.Error("Reset did not zero metrics")
	}
	c.Inc() // cached pointer stays live after Reset
	if r.Snapshot().Counters["a"] != 1 {
		t.Error("cached counter detached after Reset")
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.GetCounter("hits").Add(7)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(rec.Body)
	if !strings.Contains(string(body), "counter hits 7") {
		t.Errorf("body = %q", body)
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	name := "metrics.test.default"
	c := GetCounter(name)
	c.Inc()
	if Default.Snapshot().Counters[name] == 0 {
		t.Error("package-level counter not in Default registry")
	}
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rec.Body.String(), name) {
		t.Error("package-level Handler missing Default metrics")
	}
}
