package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// BENCHMARK.json at the repository root is the catalogue: workload names,
// every metric's name, unit and direction, and the bound of each gated
// end-to-end metric. The program reads it at start-up and keeps no second
// copy; README.md explains every row.

const (
	wOfflineCLF   = "offline_clf"
	wOfflineNoisy = "offline_noisy_gz"
	wLiveServe    = "live_serve"
	wEvalSweep    = "eval_sweep"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which a gated
	// end-to-end metric may get worse; per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// catalogue is what the program reads of BENCHMARK.json.
type catalogue struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	// EndToEnd are the gated metrics: every workload reports every one of
	// them from the child process it drives, with tracing off.
	EndToEnd []metricSpec `json:"end_to_end"`
	// PerLayer are reported, not gated: the traced run's layer metrics
	// (layer = package name), and the end-to-end metrics that belong to
	// one workload only. A metric a workload never reaches reads 0 there.
	PerLayer []metricSpec `json:"per_layer"`
}

func loadCatalogue(root string) (*catalogue, error) {
	path := filepath.Join(root, "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) == 0 || len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 || c.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end, per_layer or run_seconds missing", path)
	}
	return &c, nil
}

// gated looks a name up among the gated end-to-end metrics.
func (c *catalogue) gated(name string) (metricSpec, bool) {
	for _, m := range c.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// rawPrefix names the reading a gated time-based metric had before it was
// divided by the box's slowdown: reported beside it, never gated.
const rawPrefix = "raw."

// reported looks a name up in the whole catalogue.
func (c *catalogue) reported(name string) (metricSpec, bool) {
	if base, ok := strings.CutPrefix(name, rawPrefix); ok {
		m, ok := c.gated(base)
		m.Name, m.Bound = name, 0
		return m, ok
	}
	if m, ok := c.gated(name); ok {
		return m, true
	}
	for _, m := range c.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
