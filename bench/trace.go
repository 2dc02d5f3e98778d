package main

import (
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// this package, around the public calls into each layer: nothing inside the
// programs under test is edited.
type span struct {
	ID int `json:"id"`
	// Parent is the span that caused this one, -1 for the root.
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Chunk numbers the input chunk the span worked on, -1 when none.
	Chunk int   `json:"chunk"`
	Start int64 `json:"start_ns"` // offsets from the trace's start
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing, which is how the untraced twin of a traced
// pipeline runs. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, chunk int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Chunk: chunk,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover. Children of one
// parent never overlap here (one goroutine), so the parts simply add.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return self
}

// traceFile is what a traced run writes to bench/results/trace-<workload>.json.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	SelfNS   map[string]int64 `json:"self_time_ns"`
	Spans    []span           `json:"spans"`
}

func (t *tracer) write(e *env, cfg runConfig) (string, error) {
	dir := filepath.Join(e.root, "bench", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f := traceFile{Workload: cfg.Workload, Seed: cfg.Seed, SelfNS: make(map[string]int64), Spans: t.spans}
	for name, d := range t.selfTimes() {
		f.SelfNS[name] = int64(d)
	}
	path := filepath.Join(dir, "trace-"+cfg.Workload+".json")
	return path, writeJSON(path, f)
}
