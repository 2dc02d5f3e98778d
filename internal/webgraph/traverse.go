package webgraph

// ReachableFrom returns the set of pages reachable from any page in seeds by
// following hyperlinks forward (including the seeds themselves), as a sorted
// slice.
func (g *Graph) ReachableFrom(seeds ...PageID) []PageID {
	reached := make([]bool, g.n)
	queue := make([]PageID, 0, len(seeds))
	for _, s := range seeds {
		if g.Valid(s) && !reached[s] {
			reached[s] = true
			queue = append(queue, s)
		}
	}
	var out []PageID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		out = append(out, u)
		for _, v := range g.succ[u] {
			if !reached[v] {
				reached[v] = true
				queue = append(queue, v)
			}
		}
	}
	sortPages(out)
	return out
}

func sortPages(ps []PageID) {
	// Insertion sort: ReachableFrom discovers pages nearly in order anyway.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j] < ps[j-1]; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
