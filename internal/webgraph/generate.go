package webgraph

import (
	"fmt"
	"math/rand"
)

// TopologyConfig parameterizes GenerateTopology. The zero value is not
// useful; start from PaperTopology() and adjust.
type TopologyConfig struct {
	// Pages is the number of web pages (Table 5: 300).
	Pages int
	// AvgOutDegree is the mean number of hyperlinks per page (Table 5: 15).
	AvgOutDegree float64
	// StartPageFraction is the fraction of pages designated as session entry
	// pages. The paper does not fix this; we default to 0.05 (15 of 300).
	StartPageFraction float64
}

// PaperTopology returns the Table 5 configuration: 300 pages, average
// out-degree 15, 5% start pages.
func PaperTopology() TopologyConfig {
	return TopologyConfig{
		Pages:             300,
		AvgOutDegree:      15,
		StartPageFraction: 0.05,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c TopologyConfig) Validate() error {
	if c.Pages < 2 {
		return fmt.Errorf("webgraph: need at least 2 pages, got %d", c.Pages)
	}
	if c.AvgOutDegree <= 0 || c.AvgOutDegree > float64(c.Pages-1) {
		return fmt.Errorf("webgraph: average out-degree %.2f out of range (0, %d]",
			c.AvgOutDegree, c.Pages-1)
	}
	if c.StartPageFraction <= 0 || c.StartPageFraction > 1 {
		return fmt.Errorf("webgraph: start-page fraction %.3f out of range (0, 1]",
			c.StartPageFraction)
	}
	return nil
}

// GenerateTopology builds a random site topology according to cfg, drawing
// all randomness from rng so results are reproducible from a seed. Link
// targets are uniform over the other pages, the paper's Table 5 "typical web
// page topology", so each page's out-degree is binomial around the average.
// A minimal set of extra edges then makes every page reachable from a start
// page, so no page is one no agent can visit.
func GenerateTopology(cfg TopologyConfig, rng *rand.Rand) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := NewBuilder(cfg.Pages)

	// Designate start pages first: at least one, chosen uniformly.
	nStarts := int(float64(cfg.Pages)*cfg.StartPageFraction + 0.5)
	if nStarts < 1 {
		nStarts = 1
	}
	perm := rng.Perm(cfg.Pages)
	starts := make([]PageID, 0, nStarts)
	for _, p := range perm[:nStarts] {
		starts = append(starts, PageID(p))
		if err := b.MarkStartPage(PageID(p)); err != nil {
			return nil, err
		}
	}
	// Give the first start page the traditional label.
	if err := b.SetLabel(starts[0], "/index.html"); err != nil {
		return nil, err
	}

	generateUniform(b, cfg, rng)
	ensureReachable(b, starts, rng)
	return b.Build()
}

// generateUniform gives each page a number of out-links drawn so that the
// expected out-degree equals cfg.AvgOutDegree, with targets uniform over the
// other pages.
func generateUniform(b *Builder, cfg TopologyConfig, rng *rand.Rand) {
	n := cfg.Pages
	p := cfg.AvgOutDegree / float64(n-1)
	if p > 1 {
		p = 1
	}
	for u := 0; u < n; u++ {
		// Binomial(n-1, p) via per-candidate coin flips is O(N²) overall but
		// trivially fast at paper scale (300 pages => 90k flips).
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			if rng.Float64() < p {
				// Error impossible: in-range, no self-link, first visit.
				_ = b.AddEdge(PageID(u), PageID(v))
			}
		}
	}
}

// ensureReachable adds edges so every page is reachable from some start
// page. It repeatedly BFSes from the start set and, for each unreached page,
// links it from a uniformly chosen reached page.
func ensureReachable(b *Builder, starts []PageID, rng *rand.Rand) {
	n := b.n
	reached := make([]bool, n)
	queue := make([]PageID, 0, n)
	for _, s := range starts {
		if !reached[s] {
			reached[s] = true
			queue = append(queue, s)
		}
	}
	order := make([]PageID, 0, n) // reached pages, in discovery order
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range b.succ[u] {
			if !reached[v] {
				reached[v] = true
				queue = append(queue, v)
			}
		}
	}
	for v := 0; v < n; v++ {
		if reached[v] {
			continue
		}
		// Link from a random already-reached page; retries cover the rare
		// duplicate-edge case.
		for {
			u := order[rng.Intn(len(order))]
			if b.HasEdge(u, PageID(v)) {
				continue
			}
			_ = b.AddEdge(u, PageID(v))
			break
		}
		reached[v] = true
		order = append(order, PageID(v))
		// Pages newly reachable *through* v are discovered as later loop
		// iterations reach them; a full re-BFS is unnecessary because we only
		// need every page reached, and linking v from the reached set plus
		// the scan order guarantees that.
		queue = append(queue, PageID(v))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range b.succ[u] {
				if !reached[w] {
					reached[w] = true
					order = append(order, w)
					queue = append(queue, w)
				}
			}
		}
	}
}
