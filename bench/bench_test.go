package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in as the child launcher: runChild
// re-executes os.Executable(), which under `go test` is this binary.
func TestMain(m *testing.M) {
	launchIfAsked()
	os.Exit(m.Run())
}

// TestQuickAllWorkloads runs every workload end to end and traced at the
// quick scale: real binaries, real server, every output check live.
func TestQuickAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	for _, w := range e.spec.Workloads {
		for _, trace := range []bool{false, true} {
			sub, err := e.sub()
			if err != nil {
				t.Fatal(err)
			}
			cfg := runConfig{Workload: w.Name, Seed: 2, Seconds: 4, Trace: trace, Quick: true}
			res, err := runWorkload(context.Background(), sub, cfg)
			sub.cleanup()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d checks=%q", w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Checks)
			}
			var line bytes.Buffer
			if err := res.writeDriverLine(&line, e.spec); err != nil {
				t.Fatal(err)
			}
			var got driverLine
			if err := json.Unmarshal(line.Bytes(), &got); err != nil || strings.Count(line.String(), "\n") != 1 {
				t.Fatalf("driver line is not one JSON object: %v: %s", err, line.String())
			}
			want := e.spec.EndToEnd
			if trace {
				want = e.spec.PerLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics on the driver line, catalogue has %d", w.Name, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := got.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", w.Name, trace, m.Name, v.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(e.root, "bench", "results", "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
				if r := res.Metrics["bench.insitu_sum_ratio"]; r < 0.98 || r > 1.02 {
					t.Errorf("%s: in-situ self times sum to %.3f of the root span", w.Name, r)
				}
			}
		}
	}
}

// BENCHMARK.json must stay inside the limits the driver refuses a file for.
func TestCatalogueMeetsContract(t *testing.T) {
	spec, err := loadCatalogue("..")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range spec.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if _, ok := spec.gated("setup_s"); !ok {
		t.Error("setup_s must be a gated end-to-end metric")
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := metricSpec{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(center float64) metricSummary {
		return summarize(m, []float64{center * 0.99, center, center * 1.01, center, center * 1.005, center * 0.995})
	}
	if v := judge(m, steady(100), steady(95)); v != verdictWithin {
		t.Errorf("5 %% slower under a 10 %% bound: %s", v)
	}
	if v := judge(m, steady(100), steady(85)); v != verdictWorse {
		t.Errorf("15 %% slower under a 10 %% bound: %s", v)
	}
	if v := judge(m, steady(100), steady(130)); v != verdictWithin {
		t.Errorf("faster must never be worse: %s", v)
	}
	wide := summarize(m, []float64{70, 85, 100, 115, 130, 100})
	if v := judge(m, steady(100), wide); v != verdictUnresolved {
		t.Errorf("spread %.2f under a 10 %% bound: %s", wide.Spread, v)
	}
	lower := metricSpec{Name: "cpu_s_per_mrec", Unit: "s", Better: "lower", Bound: 0.10}
	if v := judge(lower, steady(100), steady(115)); v != verdictWorse {
		t.Errorf("15 %% more CPU under a 10 %% bound: %s", v)
	}

	if v := judge(metricSpec{Name: "closed_rps", Better: "higher"}, steady(100), steady(50)); v != verdictReported {
		t.Errorf("a metric without a bound is reported, not judged: %s", v)
	}

	spec := &catalogue{Workloads: []workloadSpec{{Name: wOfflineCLF}}, EndToEnd: []metricSpec{m}}
	dir := t.TempDir()
	write := func(name string, center float64, failed int, checks ...string) string {
		f := resultFile{Workloads: map[string]*workloadSet{
			wOfflineCLF: {EndToEnd: map[string]metricSummary{"records_per_s": steady(center)},
				Attempted: 100, Failed: failed, FailedChecks: checks},
		}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 1)
	for _, c := range []struct {
		name  string
		b     string
		worse bool
	}{
		{"same speed, same failures", write("same.json", 100, 1), false},
		{"30 % slower", write("slow.json", 70, 1), true},
		{"failures rose", write("failing.json", 100, 2), true},
		{"a run failed an output check", write("wrong.json", 100, 1, "seed 3 trace false: sessions differ"), true},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, spec, base, c.b)
		if err != nil || worse != c.worse {
			t.Errorf("%s: worse=%v err=%v\n%s", c.name, worse, err, out.String())
		}
	}
}
