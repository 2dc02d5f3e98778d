// Package webgraph models a static web site as a directed graph whose nodes
// are web pages and whose edges are hyperlinks. The paper's reactive session
// reconstruction heuristics (navigation-oriented and Smart-SRA) consult this
// topology, and the agent simulator navigates it.
//
// Graphs are immutable once built (via Builder or one of the generators in
// generate.go), which makes them safe for concurrent readers: the simulator
// runs thousands of agents in parallel over a single Graph.
package webgraph

import (
	"fmt"
)

// PageID identifies a page (node) in a Graph. IDs are dense: a graph with N
// pages uses IDs 0..N-1.
type PageID int32

// InvalidPage is returned by lookups that fail to resolve a page.
const InvalidPage PageID = -1

// Graph is an immutable directed graph of web pages.
//
// The zero value is an empty graph with no pages; use a Builder or a
// generator to construct a useful one.
type Graph struct {
	n      int
	succ   [][]PageID // out-edges, sorted ascending
	bits   []uint64   // row-major adjacency bitmap: bit (u*n + v) set iff u->v
	labels []string   // URI label per page, e.g. "/p/17.html"
	byURI  map[string]PageID
	starts []PageID // designated session entry pages, sorted
	edges  int
}

// NumPages returns the number of pages (nodes).
func (g *Graph) NumPages() int { return g.n }

// Valid reports whether p is a page of this graph.
func (g *Graph) Valid(p PageID) bool { return p >= 0 && int(p) < g.n }

// HasEdge reports whether there is a hyperlink from page u to page v.
// It runs in O(1) using the adjacency bitmap.
func (g *Graph) HasEdge(u, v PageID) bool {
	if !g.Valid(u) || !g.Valid(v) {
		return false
	}
	idx := int(u)*g.n + int(v)
	return g.bits[idx>>6]&(1<<uint(idx&63)) != 0
}

// Succ returns the pages directly linked from p (p's out-neighbors), sorted
// ascending. The returned slice is shared; callers must not modify it.
func (g *Graph) Succ(p PageID) []PageID {
	if !g.Valid(p) {
		return nil
	}
	return g.succ[p]
}

// Label returns the URI label of page p, or "" if p is invalid.
func (g *Graph) Label(p PageID) string {
	if !g.Valid(p) {
		return ""
	}
	return g.labels[p]
}

// PageByURI resolves a URI label to its page, returning InvalidPage and
// false when the URI names no page of this graph.
func (g *Graph) PageByURI(uri string) (PageID, bool) {
	p, ok := g.byURI[uri]
	if !ok {
		return InvalidPage, false
	}
	return p, true
}

// StartPages returns the designated session entry pages (the paper's "index
// pages"), sorted ascending. The returned slice is shared; callers must not
// modify it.
func (g *Graph) StartPages() []PageID { return g.starts }

// Pages returns all page IDs in ascending order, in a fresh slice.
func (g *Graph) Pages() []PageID {
	out := make([]PageID, g.n)
	for i := range out {
		out[i] = PageID(i)
	}
	return out
}

// String summarizes the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("webgraph.Graph{pages: %d, edges: %d, start pages: %d}",
		g.n, g.edges, len(g.starts))
}
