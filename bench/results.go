package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// envInfo says what a result file was measured on.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
	Started    string `json:"started"`
}

func describeEnv(e *env) envInfo {
	return envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Commit: e.commit(), Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// metricSummary is one workload × end-to-end metric row of a result set:
// one value per run, and what -compare needs from them.
type metricSummary struct {
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the catalogue's bound when the set was recorded; 0 for an
	// end-to-end metric that is reported, not gated.
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	// Spread is (q3-q1)/median, the number the driver holds to the bound.
	Spread float64 `json:"spread"`
}

func summarize(m metricSpec, values []float64) metricSummary {
	s := metricSummary{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Values: values, N: len(values)}
	s.Median = median(values)
	s.Q1, s.Q3 = quartiles(values)
	s.Min, s.Max = minMax(values)
	s.Spread = spread(values)
	return s
}

// workloadSet is every run of one workload in a result set.
type workloadSet struct {
	// EndToEnd holds every metric the untraced runs reported: the gated
	// ones and the end-to-end metrics of this workload alone.
	EndToEnd map[string]metricSummary `json:"end_to_end"`
	PerLayer map[string]float64       `json:"per_layer"`
	// Attempted and Failed are the untraced runs' operations, added up;
	// FailedChecks every failed output check of any run, traced too.
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	FailedChecks []string `json:"failed_checks,omitempty"`
}

// resultFile is what -out writes: the environment, per-workload summaries
// (for -all) and every run with its raw samples.
type resultFile struct {
	Env       envInfo                 `json:"env"`
	Seconds   float64                 `json:"seconds,omitempty"`
	Workloads map[string]*workloadSet `json:"workloads,omitempty"`
	Runs      []*runResult            `json:"runs"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll records one full result set per file in outs: for every workload,
// runs end-to-end runs on consecutive seeds and one traced run, each in a
// fresh scratch directory as the driver's separate processes would have.
//
// Several sets are recorded run by run in alternation (set 1's run on a
// seed, then set 2's, the order swapping every seed), never one after the
// other: this box changes speed by a third from one quarter of an hour to
// the next, and only sets that shared every such period can be compared.
// It fails, after writing the files, if any run failed an output check.
func runAll(ctx context.Context, e *env, seed int64, runs int, seconds float64, quick bool, outs []string) error {
	files := make([]*resultFile, len(outs))
	for k := range files {
		files[k] = &resultFile{Env: describeEnv(e), Seconds: seconds, Workloads: make(map[string]*workloadSet)}
	}
	incorrect := 0
	for _, w := range e.spec.Workloads {
		sets := make([]*workloadSet, len(outs))
		values := make([]map[string][]float64, len(outs))
		for k := range sets {
			sets[k] = &workloadSet{EndToEnd: make(map[string]metricSummary), PerLayer: make(map[string]float64)}
			values[k] = make(map[string][]float64)
		}
		for i := 0; i <= runs; i++ {
			// The last iteration is the traced run, on the first seed.
			cfg := runConfig{Workload: w.Name, Seed: seed + int64(i), Seconds: seconds, Quick: quick}
			if i == runs {
				cfg.Seed, cfg.Trace = seed, true
			}
			for j := range outs {
				k := j
				if i%2 == 1 {
					k = len(outs) - 1 - j
				}
				sub, err := e.sub()
				if err != nil {
					return err
				}
				start := time.Now()
				res, err := runWorkload(ctx, sub, cfg)
				sub.cleanup()
				if err != nil {
					return fmt.Errorf("%s seed %d trace %v: %w", w.Name, cfg.Seed, cfg.Trace, err)
				}
				fmt.Fprintf(os.Stderr, "%s set=%d seed=%d trace=%v correct=%v failed=%d/%d wall=%.1fs\n",
					w.Name, k+1, cfg.Seed, cfg.Trace, res.Correct, res.Failed, res.Attempted, time.Since(start).Seconds())
				for _, c := range res.Checks {
					fmt.Fprintln(os.Stderr, "  FAILED CHECK:", c)
					sets[k].FailedChecks = append(sets[k].FailedChecks, fmt.Sprintf("seed %d trace %v: %s", cfg.Seed, cfg.Trace, c))
				}
				if !res.Correct {
					incorrect++
				}
				files[k].Runs = append(files[k].Runs, res)
				if cfg.Trace {
					for _, m := range e.spec.PerLayer {
						sets[k].PerLayer[m.Name] = res.Metrics[m.Name]
					}
					continue
				}
				sets[k].Attempted += res.Attempted
				sets[k].Failed += res.Failed
				for name, v := range res.Metrics {
					values[k][name] = append(values[k][name], v)
				}
			}
		}
		for k, set := range sets {
			for name, vs := range values[k] {
				// Only a metric every run reported has a median to compare.
				if m, ok := e.spec.reported(name); ok && len(vs) == runs {
					set.EndToEnd[name] = summarize(m, vs)
				}
			}
			files[k].Workloads[w.Name] = set
			// Written after every workload, so an interrupted set keeps
			// what it measured.
			if err := writeJSON(outs[k], files[k]); err != nil {
				return err
			}
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed an output check", incorrect)
	}
	return nil
}
