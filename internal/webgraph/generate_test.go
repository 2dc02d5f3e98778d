package webgraph

import (
	"math"
	"math/rand"
	"testing"
)

func TestTopologyConfigValidate(t *testing.T) {
	ok := PaperTopology()
	if err := ok.Validate(); err != nil {
		t.Fatalf("paper defaults invalid: %v", err)
	}
	bad := []TopologyConfig{
		{Pages: 1, AvgOutDegree: 1, StartPageFraction: 0.1},
		{Pages: 10, AvgOutDegree: 0, StartPageFraction: 0.1},
		{Pages: 10, AvgOutDegree: 20, StartPageFraction: 0.1},
		{Pages: 10, AvgOutDegree: 3, StartPageFraction: 0},
		{Pages: 10, AvgOutDegree: 3, StartPageFraction: 1.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := GenerateTopology(bad[0], rand.New(rand.NewSource(1))); err == nil {
		t.Error("GenerateTopology accepted invalid config")
	}
}

func TestGenerateUniformMatchesPaperDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2006))
	g, err := GenerateTopology(PaperTopology(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPages() != 300 {
		t.Fatalf("pages = %d, want 300", g.NumPages())
	}
	// Average out-degree should be near 15 (binomial mean); allow 10% slack.
	if d := g.AvgOutDegree(); math.Abs(d-15) > 1.5 {
		t.Errorf("avg out-degree = %.2f, want ~15", d)
	}
	if got := len(g.StartPages()); got != 15 {
		t.Errorf("start pages = %d, want 15 (5%% of 300)", got)
	}
	if _, ok := g.PageByURI("/index.html"); !ok {
		t.Error("no /index.html page")
	}
}

func TestGenerateDeterministicFromSeed(t *testing.T) {
	cfg := PaperTopology()
	g1, err := GenerateTopology(cfg, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := GenerateTopology(cfg, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced different edge counts: %d vs %d", g1.NumEdges(), g2.NumEdges())
	}
	for u := 0; u < g1.NumPages(); u++ {
		s1, s2 := g1.Succ(PageID(u)), g2.Succ(PageID(u))
		if len(s1) != len(s2) {
			t.Fatalf("page %d out-degree differs", u)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("page %d successor %d differs", u, i)
			}
		}
	}
	g3, err := GenerateTopology(cfg, rand.New(rand.NewSource(100)))
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() == g1.NumEdges() && sameSucc(g1, g3) {
		t.Error("different seeds produced identical graphs")
	}
}

func sameSucc(a, b *Graph) bool {
	for u := 0; u < a.NumPages(); u++ {
		sa, sb := a.Succ(PageID(u)), b.Succ(PageID(u))
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
	}
	return true
}

func TestGenerateEnsuresReachability(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := TopologyConfig{
			Pages: 200, AvgOutDegree: 2, StartPageFraction: 0.02,
		}
		g, err := GenerateTopology(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		reached := g.ReachableFrom(g.StartPages()...)
		if len(reached) != g.NumPages() {
			t.Errorf("seed %d: only %d/%d pages reachable from start pages",
				seed, len(reached), g.NumPages())
		}
	}
}

func TestGenerateAtLeastOneStartPage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := TopologyConfig{Pages: 10, AvgOutDegree: 2, StartPageFraction: 0.001}
	g, err := GenerateTopology(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.StartPages()) < 1 {
		t.Error("no start pages designated")
	}
}

func BenchmarkGeneratePaperTopology(b *testing.B) {
	cfg := PaperTopology()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateTopology(cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g, err := GenerateTopology(PaperTopology(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	n := PageID(g.NumPages())
	b.ReportAllocs()
	var hits int
	for i := 0; i < b.N; i++ {
		if g.HasEdge(PageID(i)%n, PageID(i*7)%n) {
			hits++
		}
	}
	_ = hits
}
