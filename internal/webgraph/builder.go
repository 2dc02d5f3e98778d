package webgraph

import (
	"fmt"
	"sort"
)

// Builder accumulates pages and hyperlinks and produces an immutable Graph.
//
// A Builder is created with a fixed page count; edges, labels, and start
// pages are then added incrementally. Build validates the accumulated state
// and freezes it. Builders are not safe for concurrent use.
type Builder struct {
	n      int
	succ   [][]PageID
	labels []string
	starts map[PageID]bool
	edges  int
}

// NewBuilder returns a Builder for a graph with n pages (IDs 0..n-1). Every
// page gets a default label "/p/<id>.html" which can be overridden with
// SetLabel.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	b := &Builder{
		n:      n,
		succ:   make([][]PageID, n),
		labels: make([]string, n),
		starts: make(map[PageID]bool),
	}
	for i := 0; i < n; i++ {
		b.labels[i] = fmt.Sprintf("/p/%d.html", i)
	}
	return b
}

// AddEdge records a hyperlink from u to v. Self-links and duplicate edges
// are rejected, as are out-of-range pages.
func (b *Builder) AddEdge(u, v PageID) error {
	if int(u) < 0 || int(u) >= b.n || int(v) < 0 || int(v) >= b.n {
		return fmt.Errorf("webgraph: edge %d->%d out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("webgraph: self-link on page %d rejected", u)
	}
	for _, w := range b.succ[u] {
		if w == v {
			return fmt.Errorf("webgraph: duplicate edge %d->%d", u, v)
		}
	}
	b.succ[u] = append(b.succ[u], v)
	b.edges++
	return nil
}

// HasEdge reports whether the builder already holds the edge u->v.
func (b *Builder) HasEdge(u, v PageID) bool {
	if int(u) < 0 || int(u) >= b.n {
		return false
	}
	for _, w := range b.succ[u] {
		if w == v {
			return true
		}
	}
	return false
}

// SetLabel assigns a URI label to page p, replacing the default.
func (b *Builder) SetLabel(p PageID, uri string) error {
	if int(p) < 0 || int(p) >= b.n {
		return fmt.Errorf("webgraph: label for out-of-range page %d", p)
	}
	if uri == "" {
		return fmt.Errorf("webgraph: empty label for page %d", p)
	}
	b.labels[p] = uri
	return nil
}

// MarkStartPage designates p as a session entry page.
func (b *Builder) MarkStartPage(p PageID) error {
	if int(p) < 0 || int(p) >= b.n {
		return fmt.Errorf("webgraph: start page %d out of range", p)
	}
	b.starts[p] = true
	return nil
}

// Build validates and freezes the builder into an immutable Graph. It
// returns an error when two pages share a label. The builder remains usable
// afterwards (Build copies all state).
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{
		n:      b.n,
		succ:   make([][]PageID, b.n),
		labels: append([]string(nil), b.labels...),
		byURI:  make(map[string]PageID, b.n),
		edges:  b.edges,
	}
	words := (b.n*b.n + 63) / 64
	g.bits = make([]uint64, words)
	for u := 0; u < b.n; u++ {
		out := append([]PageID(nil), b.succ[u]...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		g.succ[u] = out
		for _, v := range out {
			idx := u*b.n + int(v)
			g.bits[idx>>6] |= 1 << uint(idx&63)
		}
	}
	for i, uri := range g.labels {
		if prev, dup := g.byURI[uri]; dup {
			return nil, fmt.Errorf("webgraph: pages %d and %d share label %q", prev, i, uri)
		}
		g.byURI[uri] = PageID(i)
	}
	g.starts = make([]PageID, 0, len(b.starts))
	for p := range b.starts {
		g.starts = append(g.starts, p)
	}
	sort.Slice(g.starts, func(i, j int) bool { return g.starts[i] < g.starts[j] })
	return g, nil
}

// MustBuild is Build that panics on error, for tests and fixed literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
