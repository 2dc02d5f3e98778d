package webgraph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The graph queries below only tests ask.

// NumEdges returns the number of hyperlinks (directed edges).
func (g *Graph) NumEdges() int { return g.edges }

// Pred returns the pages that link to p (p's in-neighbors), sorted ascending.
func (g *Graph) Pred(p PageID) []PageID {
	var out []PageID
	for u := 0; u < g.n; u++ {
		if g.HasEdge(PageID(u), p) {
			out = append(out, PageID(u))
		}
	}
	return out
}

// OutDegree returns the number of hyperlinks leaving p.
func (g *Graph) OutDegree(p PageID) int { return len(g.Succ(p)) }

// InDegree returns the number of hyperlinks pointing at p.
func (g *Graph) InDegree(p PageID) int { return len(g.Pred(p)) }

// AvgOutDegree returns the mean out-degree across all pages, or 0 for an
// empty graph. Table 5 of the paper fixes this at 15 for the default
// topology.
func (g *Graph) AvgOutDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.edges) / float64(g.n)
}

// IsStartPage reports whether p is a designated entry page.
func (g *Graph) IsStartPage(p PageID) bool {
	_, found := slices.BinarySearch(g.starts, p)
	return found
}

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
	slices.Sort(out)
	return out
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.NumPages() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d pages, %d edges", g.NumPages(), g.NumEdges())
	}
	if g.AvgOutDegree() != 0 {
		t.Fatalf("empty graph avg out-degree = %v, want 0", g.AvgOutDegree())
	}
	if g.HasEdge(0, 0) {
		t.Fatal("empty graph claims an edge")
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	cases := []struct {
		u, v PageID
		name string
	}{
		{0, 0, "self-link"},
		{-1, 1, "negative source"},
		{0, 3, "target out of range"},
		{3, 0, "source out of range"},
	}
	for _, c := range cases {
		if err := b.AddEdge(c.u, c.v); err == nil {
			t.Errorf("%s: AddEdge(%d,%d) accepted", c.name, c.u, c.v)
		}
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(0, 1); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestBuilderRejectsBadLabelsAndStarts(t *testing.T) {
	b := NewBuilder(2)
	if err := b.SetLabel(5, "/x"); err == nil {
		t.Error("out-of-range label accepted")
	}
	if err := b.SetLabel(0, ""); err == nil {
		t.Error("empty label accepted")
	}
	if err := b.MarkStartPage(7); err == nil {
		t.Error("out-of-range start page accepted")
	}
	if err := b.SetLabel(0, "/same"); err != nil {
		t.Fatal(err)
	}
	if err := b.SetLabel(1, "/same"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Error("duplicate labels not rejected at Build")
	}
}

func TestGraphAccessors(t *testing.T) {
	b := NewBuilder(4)
	mustEdge := func(u, v PageID) {
		t.Helper()
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(0, 1)
	mustEdge(0, 2)
	mustEdge(2, 1)
	mustEdge(3, 0)
	if err := b.MarkStartPage(0); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()

	if got := g.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d, want 4", got)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(3, 0) || g.HasEdge(1, 0) {
		t.Error("HasEdge disagrees with inserted edges")
	}
	if got := g.OutDegree(0); got != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.InDegree(1); got != 2 {
		t.Errorf("InDegree(1) = %d, want 2", got)
	}
	if got := g.Succ(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Succ(0) = %v, want [1 2]", got)
	}
	if got := g.Pred(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Pred(1) = %v, want [0 2]", got)
	}
	if g.Succ(99) != nil || g.Pred(-1) != nil {
		t.Error("out-of-range Succ/Pred not nil")
	}
	if !g.IsStartPage(0) || g.IsStartPage(1) {
		t.Error("start page designation wrong")
	}
	if got := g.AvgOutDegree(); got != 1.0 {
		t.Errorf("AvgOutDegree = %v, want 1.0", got)
	}
	if got := len(g.Pages()); got != 4 {
		t.Errorf("Pages() has %d entries, want 4", got)
	}
	if !strings.Contains(g.String(), "pages: 4") {
		t.Errorf("String() = %q", g.String())
	}
}

func TestLabelsAndURILookup(t *testing.T) {
	b := NewBuilder(2)
	if err := b.SetLabel(1, "/about.html"); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	if got := g.Label(0); got != "/p/0.html" {
		t.Errorf("default label = %q", got)
	}
	if got := g.Label(1); got != "/about.html" {
		t.Errorf("custom label = %q", got)
	}
	if got := g.Label(9); got != "" {
		t.Errorf("invalid label = %q, want empty", got)
	}
	p, ok := g.PageByURI("/about.html")
	if !ok || p != 1 {
		t.Errorf("PageByURI(/about.html) = %v, %v", p, ok)
	}
	if _, ok := g.PageByURI("/missing"); ok {
		t.Error("PageByURI resolved a missing URI")
	}
}

func TestPaperFigure1Topology(t *testing.T) {
	g, ids := PaperFigure1()
	if g.NumPages() != 6 {
		t.Fatalf("figure 1 has %d pages, want 6", g.NumPages())
	}
	// The exact Link[...] conditions quoted in Table 2.
	wantTrue := [][2]string{
		{"P1", "P20"}, {"P1", "P13"}, {"P13", "P49"},
		{"P13", "P34"}, {"P34", "P23"}, {"P49", "P23"}, {"P20", "P23"},
	}
	wantFalse := [][2]string{{"P20", "P13"}, {"P49", "P34"}, {"P23", "P1"}}
	for _, e := range wantTrue {
		if !g.HasEdge(ids[e[0]], ids[e[1]]) {
			t.Errorf("missing edge %s->%s", e[0], e[1])
		}
	}
	for _, e := range wantFalse {
		if g.HasEdge(ids[e[0]], ids[e[1]]) {
			t.Errorf("unexpected edge %s->%s", e[0], e[1])
		}
	}
	if !g.IsStartPage(ids["P1"]) || !g.IsStartPage(ids["P49"]) {
		t.Error("P1 and P49 should be start pages (Figure 3)")
	}
	if g.IsStartPage(ids["P23"]) {
		t.Error("P23 should not be a start page")
	}
}

func TestReachableFrom(t *testing.T) {
	g, ids := PaperFigure1()
	got := g.ReachableFrom(ids["P13"])
	want := map[PageID]bool{ids["P13"]: true, ids["P49"]: true, ids["P34"]: true, ids["P23"]: true}
	if len(got) != len(want) {
		t.Fatalf("ReachableFrom(P13) = %v, want 4 pages", got)
	}
	for _, p := range got {
		if !want[p] {
			t.Errorf("unexpected reachable page %d", p)
		}
	}
	if got := g.ReachableFrom(); got != nil {
		t.Errorf("ReachableFrom() with no seeds = %v, want nil", got)
	}
	if got := g.ReachableFrom(InvalidPage); got != nil {
		t.Errorf("ReachableFrom(invalid) = %v, want nil", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, err := GenerateTopology(PaperTopology(), rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumPages() != g.NumPages() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: %v vs %v", g2, g)
	}
	for u := 0; u < g.NumPages(); u++ {
		if g.Label(PageID(u)) != g2.Label(PageID(u)) {
			t.Fatalf("label of %d changed", u)
		}
		su, su2 := g.Succ(PageID(u)), g2.Succ(PageID(u))
		if len(su) != len(su2) {
			t.Fatalf("out-degree of %d changed", u)
		}
		for i := range su {
			if su[i] != su2[i] {
				t.Fatalf("successor %d of %d changed", i, u)
			}
		}
	}
	if len(g.StartPages()) != len(g2.StartPages()) {
		t.Fatal("start pages changed")
	}
}

func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"not json", "{{{"},
		{"negative pages", `{"pages": -1}`},
		{"label count mismatch", `{"pages": 2, "labels": ["/a"]}`},
		{"edge out of range", `{"pages": 2, "edges": [[5]]}`},
		{"too many adjacency rows", `{"pages": 1, "edges": [[], []]}`},
		{"self loop", `{"pages": 2, "edges": [[0]]}`},
		{"bad start page", `{"pages": 2, "start_pages": [9]}`},
		{"duplicate labels", `{"pages": 2, "labels": ["/a", "/a"]}`},
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c.json)); err == nil {
			t.Errorf("%s: Decode accepted %q", c.name, c.json)
		}
	}
}
