package eval

import (
	"fmt"
	"io"
	"strings"

	"smartsra/internal/stats"
)

// ReplicateResult holds per-heuristic accuracy statistics across replicated
// runs of the same configuration with different simulation seeds (the
// topology stays fixed, as the paper fixes its web site across agents).
type ReplicateResult struct {
	// Seeds are the simulation seeds used, in order.
	Seeds []int64
	// Names are the heuristic series actually evaluated, in report order
	// (paper names first, extras such as "heurR" or custom heuristics after).
	Names []string
	// Matched maps heuristic name to the summary of matched-accuracy
	// percentages across seeds.
	Matched map[string]stats.Summary
	// Exists maps heuristic name to the summary of exists-accuracy
	// percentages.
	Exists map[string]stats.Summary
}

// ReplicateWith runs one point per seed under the bounded worker pool
// (runPoints) and summarizes the spread; at least one seed is required. The
// topology is generated once and shared read-only, and seeds are evaluated
// concurrently. Results are identical for any worker count.
// The summarized series are the heuristics the points actually evaluated —
// including custom cfg.heuristics sets and the cfg.IncludeReferrer upper
// bound — not a hardcoded list.
func ReplicateWith(cfg RunConfig, seeds []int64, opts RunOptions) (*ReplicateResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("eval: no seeds to replicate over")
	}
	g, err := Topology(cfg)
	if err != nil {
		return nil, err
	}
	cfgs := make([]RunConfig, len(seeds))
	for i, seed := range seeds {
		cfgs[i] = cfg
		cfgs[i].Params.Seed = seed
	}
	points, i, err := runPoints(g, cfgs, opts)
	if err != nil {
		return nil, fmt.Errorf("eval: replicate seed %d: %w", seeds[i], err)
	}
	metricSeedsDone.Add(int64(len(seeds)))
	// Every point runs the same configuration, so they all carry its series.
	names := points[0].SeriesNames()
	matched := make(map[string][]float64, len(names))
	exists := make(map[string][]float64, len(names))
	for _, p := range points { // seed order, so summaries are seed-ordered
		for _, h := range names {
			matched[h] = append(matched[h], p.Matched[h].Percent())
			exists[h] = append(exists[h], p.Exists[h].Percent())
		}
	}
	out := &ReplicateResult{
		Seeds:   append([]int64(nil), seeds...),
		Names:   names,
		Matched: make(map[string]stats.Summary, len(names)),
		Exists:  make(map[string]stats.Summary, len(names)),
	}
	for _, h := range names {
		out.Matched[h] = stats.Summarize(matched[h])
		out.Exists[h] = stats.Summarize(exists[h])
	}
	return out, nil
}

// WriteTable renders the replication as mean ± 95% CI per evaluated series.
func (r *ReplicateResult) WriteTable(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "replicated over %d seeds — accuracy %% mean ± 95%% CI\n", len(r.Seeds))
	fmt.Fprintf(&sb, "%-8s %-22s %s\n", "", "matched", "exists")
	for _, h := range r.Names {
		m, e := r.Matched[h], r.Exists[h]
		fmt.Fprintf(&sb, "%-8s %6.2f ± %-13.2f %6.2f ± %.2f\n",
			h, m.Mean, m.CI95(), e.Mean, e.CI95())
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
