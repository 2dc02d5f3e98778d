package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// runConfig is what the driver passes to one run.
type runConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick"`
}

// scale sizes the inputs. Full is the contract's size; quick keeps every
// code path and check but finishes in seconds, for `go test`.
type scale struct {
	offlineAgents int
	liveAgents    int
	evalAgents    int
	// minRuns is the least number of timed child runs, whatever -seconds.
	minRuns int
	// isolatedReps is how many times an isolated layer call is repeated;
	// the median is reported.
	isolatedReps int
	// setupReps is how many times the set-up is made and timed.
	setupReps int
}

func (c runConfig) scale() scale {
	if c.Quick {
		return scale{offlineAgents: 5000, liveAgents: 5000, evalAgents: 1000, minRuns: 1, isolatedReps: 1, setupReps: 1}
	}
	return scale{offlineAgents: 55000, liveAgents: 16000, evalAgents: 10000, minRuns: 2, isolatedReps: 3, setupReps: 3}
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Config    runConfig `json:"config"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Metrics are the reported values; Samples the raw timed samples a
	// reported median was taken from.
	Metrics map[string]float64   `json:"metrics"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Checks lists every output check that failed.
	Checks []string `json:"failed_checks,omitempty"`
	// Info records input sizes and repeat counts.
	Info map[string]any `json:"info,omitempty"`

	// yard reads the box's speed around every timed sample.
	yard *yardstick
}

// newResult also takes the run's first yardstick reading.
func newResult(ctx context.Context, cfg runConfig) (*runResult, error) {
	yard, err := newYardstick(ctx)
	if err != nil {
		return nil, err
	}
	return &runResult{
		Config:  cfg,
		Metrics: make(map[string]float64),
		Samples: make(map[string][]float64),
		Info:    make(map[string]any),
		yard:    yard,
	}, nil
}

// sample records one timed sample of a metric.
func (r *runResult) sample(name string, v float64) {
	r.Samples[name] = append(r.Samples[name], v)
}

// sampleTimes records one timed sample of records_per_s and cpu_s_per_mrec:
// n records took wall and cpu seconds while the box ran slowdown times slower
// than the reference. The raw readings are kept beside the gated ones.
func (r *runResult) sampleTimes(n, wall, cpu, slowdown float64) {
	r.sample("records_per_s", n/atRef(wall, slowdown))
	r.sample("cpu_s_per_mrec", atRef(cpu, slowdown)/n*1e6)
	r.sample(rawPrefix+"records_per_s", n/wall)
	r.sample(rawPrefix+"cpu_s_per_mrec", cpu/n*1e6)
	r.sample("bench.box_slowdown", slowdown)
}

// reportMedians sets each sampled metric to the median of its samples, and
// bench.box_slowdown to the median of the run's yardstick readings.
func (r *runResult) reportMedians() {
	for name, xs := range r.Samples {
		r.Metrics[name] = median(xs)
	}
	if _, ok := r.Metrics["bench.box_slowdown"]; !ok {
		r.Metrics["bench.box_slowdown"] = median(r.yard.all)
	}
}

// failCheck records a failed output check.
func (r *runResult) failCheck(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// finish derives Correct — every output check passed — and failed_share,
// and makes sure at least one operation counts. Failed operations are counted
// separately: a request shed at a rate the server cannot sustain is a
// failure, not a wrong output. An end-to-end metric the run could not
// measure is a failed check, not a silent 0.
func (r *runResult) finish(spec *catalogue) {
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Metrics["failed_share"] = float64(r.Failed) / float64(r.Attempted)
	if !r.Config.Trace {
		for _, m := range spec.EndToEnd {
			if !(r.Metrics[m.Name] > 0) {
				r.failCheck("end-to-end metric %s was not measured", m.Name)
			}
		}
	}
	r.Correct = len(r.Checks) == 0
}

// timeSetup runs a workload's whole set-up reps times and samples setup_s
// from each, at the reference box speed like every other time; the run uses
// what the last repeat made. A single set-up is 1 to 4 s of process starts
// and file writes and differs by a quarter between runs; the median of three
// repeats by far less.
func (r *runResult) timeSetup(reps int, setup func(i int) error) error {
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := setup(i); err != nil {
			return err
		}
		took := time.Since(start).Seconds()
		slowdown, err := r.yard.read(1)
		if err != nil {
			return err
		}
		r.sample("setup_s", atRef(took, slowdown))
		r.sample(rawPrefix+"setup_s", took)
	}
	return nil
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output: exactly the catalogue's metrics for the run's mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) writeDriverLine(w io.Writer, spec *catalogue) error {
	list := spec.EndToEnd
	if r.Config.Trace {
		list = spec.PerLayer
	}
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]driverValue, len(list))}
	for _, m := range list {
		// A per-layer metric the workload does not reach reads 0; a
		// missing end-to-end metric is a bug the caller has already
		// turned into a failed check.
		line.Metrics[m.Name] = driverValue{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}

// writeHuman prints every metric the run reported by name with its unit,
// sorted: an untraced run's gated metrics and the end-to-end metrics of its
// own workload, a traced run's per-layer list.
func (r *runResult) writeHuman(w io.Writer, spec *catalogue) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m, ok := spec.reported(n)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-36s %14.6g %s", n, r.Metrics[n], m.Unit)
		if xs := r.Samples[n]; len(xs) > 1 {
			q1, q3 := quartiles(xs)
			lo, hi := minMax(xs)
			fmt.Fprintf(w, "   (n=%d q1=%.6g q3=%.6g min=%.6g max=%.6g)", len(xs), q1, q3, lo, hi)
		}
		fmt.Fprintln(w)
	}
	for _, c := range r.Checks {
		fmt.Fprintln(w, "FAILED CHECK:", c)
	}
}
