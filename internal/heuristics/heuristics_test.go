package heuristics

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

func TestNamesAndDescriptions(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	hs := []Reconstructor{NewTimeTotal(), NewTimeGap(), NewNavigation(g), NewSmartSRA(g)}
	wantNames := []string{"heur1", "heur2", "heur3", "heur4"}
	for i, h := range hs {
		if h.Name() != wantNames[i] {
			t.Errorf("heuristic %d Name = %q, want %q", i, h.Name(), wantNames[i])
		}
		if h.Describe() == "" {
			t.Errorf("%s has no description", h.Name())
		}
		if byName, err := ByName(wantNames[i], g); err != nil || byName.Name() != wantNames[i] {
			t.Errorf("ByName(%q) = %v, %v", wantNames[i], byName, err)
		}
	}
	if _, err := ByName("referrer", g); err == nil {
		t.Error("ByName accepted a name that is not one of the four")
	}
	if got, want := NewSmartSRA(g).Describe(), "Smart-SRA (δ=30m0s, ρ=10m0s)"; got != want {
		t.Errorf("Smart-SRA description = %q, want %q", got, want)
	}
}

// pages returns the page IDs of entries, in order.
func pages(entries []session.Entry) []webgraph.PageID {
	out := make([]webgraph.PageID, len(entries))
	for i, e := range entries {
		out[i] = e.Page
	}
	return out
}

// reconstruct returns the sessions of one stream, on a fresh lane of h.
func reconstruct(h Reconstructor, st session.Stream) []session.Session {
	return ReconstructAll(h, []session.Stream{st})
}

func TestEmptyAndSingletonStreams(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	hs := []Reconstructor{NewTimeTotal(), NewTimeGap(), NewNavigation(g), NewSmartSRA(g)}
	for _, h := range hs {
		if got := reconstruct(h, session.Stream{User: "u"}); len(got) != 0 {
			t.Errorf("%s on empty stream: %v", h.Name(), got)
		}
		one := figStream(ids, "P1", 0)
		got := reconstruct(h, one)
		if len(got) != 1 || got[0].Len() != 1 || got[0].Entries[0].Page != ids["P1"] {
			t.Errorf("%s on singleton stream: %v", h.Name(), got)
		}
		if got[0].User != "agent" {
			t.Errorf("%s lost user attribution: %q", h.Name(), got[0].User)
		}
	}
}

func TestTimeTotalBoundaryInclusive(t *testing.T) {
	_, ids := webgraph.PaperFigure1()
	// Exactly δ from the first page: still the same session (ti - t0 ≤ δ).
	st := figStream(ids, "P1", 0, "P20", 30)
	got := reconstruct(NewTimeTotal(), st)
	if len(got) != 1 {
		t.Errorf("30-minute-span stream split: %v", got)
	}
	st2 := figStream(ids, "P1", 0, "P20", 31)
	if got := reconstruct(NewTimeTotal(), st2); len(got) != 2 {
		t.Errorf("31-minute-span stream not split: %v", got)
	}
}

func TestTimeGapBoundaryInclusive(t *testing.T) {
	_, ids := webgraph.PaperFigure1()
	st := figStream(ids, "P1", 0, "P20", 10)
	if got := reconstruct(NewTimeGap(), st); len(got) != 1 {
		t.Errorf("10-minute gap split: %v", got)
	}
	st2 := figStream(ids, "P1", 0, "P20", 11)
	if got := reconstruct(NewTimeGap(), st2); len(got) != 2 {
		t.Errorf("11-minute gap not split: %v", got)
	}
}

func TestTimeTotalRestartsWindowAtNewSession(t *testing.T) {
	_, ids := webgraph.PaperFigure1()
	// 0, 31 (split), 45: the 45 entry is within 30 of 31, so joins session 2.
	st := figStream(ids, "P1", 0, "P20", 31, "P13", 45)
	got := reconstruct(NewTimeTotal(), st)
	if len(got) != 2 || got[1].Len() != 2 {
		t.Errorf("window not restarted: %v", got)
	}
}

func TestNavigationClosesSessionWhenUnreachable(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	// P49's only in-link is from P13; from [P20] nothing reaches P49.
	st := figStream(ids, "P20", 0, "P49", 2)
	got := names(ids, reconstruct(NewNavigation(g), st))
	if len(got) != 2 || !eqSeq(got[0], []string{"P20"}) || !eqSeq(got[1], []string{"P49"}) {
		t.Errorf("navigation did not close unreachable session: %v", got)
	}
}

func TestNavigationBacktracksMultipleSteps(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	// [P1, P13, P34]; next P20 is linked only from P1 (index 0): backward
	// movements P13, P1 are inserted.
	st := figStream(ids, "P1", 0, "P13", 2, "P34", 4, "P20", 6)
	got := names(ids, reconstruct(NewNavigation(g), st))
	want := []string{"P1", "P13", "P34", "P13", "P1", "P20"}
	if len(got) != 1 || !eqSeq(got[0], want) {
		t.Errorf("multi-step backtrack = %v, want %v", got, want)
	}
}

func TestNavigationPairsAreForwardOrBackwardEdges(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	st := figStream(ids, "P1", 0, "P13", 1, "P49", 2, "P34", 3, "P20", 4, "P23", 5)
	for _, s := range reconstruct(NewNavigation(g), st) {
		for i := 1; i < len(s.Entries); i++ {
			a, b := s.Entries[i-1].Page, s.Entries[i].Page
			if !g.HasEdge(a, b) && !g.HasEdge(b, a) {
				t.Errorf("pair %d (%d,%d) is neither a forward nor backward edge",
					i, a, b)
			}
		}
	}
	_ = ids
}

func TestSmartSRATimeOrphanBecomesSingleton(t *testing.T) {
	// Candidate [A@0, B@5, C@9, O@14] with edges A->B, B->C, A->O.
	// O's only referrer A is 14 minutes old (> ρ), so the referrer does not
	// count (Step I applies the page-stay bound) and O is a start page of
	// the very first wave: it becomes its own session rather than being
	// appended to A's or dropped.
	b := webgraph.NewBuilder(4)
	for _, e := range [][2]webgraph.PageID{{0, 1}, {1, 2}, {0, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	st := session.Stream{User: "u", Entries: []session.Entry{
		{Page: 0, Time: t0},
		{Page: 1, Time: t0.Add(5 * time.Minute)},
		{Page: 2, Time: t0.Add(9 * time.Minute)},
		{Page: 3, Time: t0.Add(14 * time.Minute)},
	}}
	got := reconstruct(NewSmartSRA(g), st)
	if len(got) != 2 {
		t.Fatalf("got %v, want [0 1 2] and [3]", got)
	}
	foundChain, foundSingleton := false, false
	for _, s := range got {
		if s.Len() == 3 && s.Entries[0].Page == 0 && s.Entries[2].Page == 2 {
			foundChain = true
		}
		if s.Len() == 1 && s.Entries[0].Page == 3 {
			foundSingleton = true
		}
	}
	if !foundChain || !foundSingleton {
		t.Errorf("got %v, want [0 1 2] and [3]", got)
	}
}

// Property: Phase 2 attaches every entry of a candidate to some session.
// Step I and Step III apply the same predicate (link, strict time order,
// ρ), so the referrer that kept a page out of one wave leaves a session
// ending in itself for the next: the pseudocode's implicit drop of a page
// that extends nothing can never fire (DESIGN.md, "Orphan pages in Phase
// 2"). Small dense sites give each page the most competing referrers.
func TestSmartSRAPhase2AttachesEveryEntryProperty(t *testing.T) {
	graphs := []*webgraph.Graph{fuzzGraph(t), denseGraph(t, 12, 5), denseGraph(t, 8, 4)}
	type key struct {
		page webgraph.PageID
		ns   int64
	}
	for _, g := range graphs {
		h := NewSmartSRA(g)
		t.Run(fmt.Sprintf("pages=%d", g.NumPages()), func(t *testing.T) {
			scr := new(sraScratch)
			covered := make(map[key]bool)
			f := func(seed int64, size uint8) bool {
				st := randomStream(g, rand.New(rand.NewSource(seed)), int(size)%80)
				scr.bounds = h.phase1(st.Entries, scr.bounds[:0])
				for b := 0; b+1 < len(scr.bounds); b++ {
					cand := st.Entries[scr.bounds[b]:scr.bounds[b+1]]
					clear(covered)
					for _, s := range h.phase2(cand, scr) {
						for _, e := range s {
							covered[key{e.Page, e.Time.UnixNano()}] = true
						}
					}
					for _, e := range cand {
						if !covered[key{e.Page, e.Time.UnixNano()}] {
							t.Logf("seed=%d size=%d: page %d at %v left out of %v",
								seed, size, e.Page, e.Time.Sub(t0), cand)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSmartSRAPhase1Splits(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	h := NewSmartSRA(g)
	// An 11-minute gap forces a Phase-1 split even though P13->P49 is an edge.
	st := figStream(ids, "P1", 0, "P13", 5, "P49", 17)
	got := names(ids, reconstruct(h, st))
	if !containsSeq(got, []string{"P1", "P13"}) || !containsSeq(got, []string{"P49"}) {
		t.Errorf("page-stay split missing: %v", got)
	}
	// Total-duration split: increments of 9 minutes stay under ρ but pass δ.
	st2 := figStream(ids, "P1", 0, "P13", 9, "P49", 18, "P23", 27, "P23", 36)
	got2 := reconstruct(NewSmartSRA(g), st2)
	for _, s := range got2 {
		if s.Duration() > h.Rules.TotalDuration {
			t.Errorf("session exceeds δ: %v", s)
		}
	}
}

// TestSmartSRAPhase2RefusesStaleReferrer: Phase 2 applies ρ itself, not
// only through Phase 1's split. Within one candidate — consecutive gaps ≤ ρ,
// so Phase 1 keeps it whole — a page is joined only to referrers at most ρ
// before it: the fresher referrer's session takes it and the stale one's
// does not, and a page whose only referrer is stale starts a session of its
// own. So does a linked page handed to phase2 more than ρ after its
// referrer.
func TestSmartSRAPhase2RefusesStaleReferrer(t *testing.T) {
	b := webgraph.NewBuilder(4)
	for _, e := range [][2]webgraph.PageID{{0, 2}, {1, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	h := NewSmartSRA(b.MustBuild())
	scr := new(sraScratch)
	at := func(page webgraph.PageID, min int) session.Entry {
		return session.Entry{Page: page, Time: t0.Add(time.Duration(min) * time.Minute)}
	}
	for _, c := range []struct {
		cand []session.Entry
		want []string // each session's pages, sorted
	}{
		{[]session.Entry{at(0, 0), at(1, 6), at(2, 12)}, []string{"[0]", "[1 2]"}},
		{[]session.Entry{at(0, 0), at(3, 6), at(2, 12)}, []string{"[0]", "[2]", "[3]"}},
		{[]session.Entry{at(0, 0), at(2, 11)}, []string{"[0]", "[2]"}},
	} {
		if c.cand[1].Time.Sub(c.cand[0].Time) <= h.Rules.PageStay {
			if bounds := h.phase1(c.cand, nil); len(bounds) != 2 {
				t.Fatalf("%v: Phase 1 split the candidate at %v", c.cand, bounds)
			}
		}
		var got []string
		for _, s := range h.phase2(c.cand, scr) {
			got = append(got, fmt.Sprint(pages(s)))
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v: Phase 2 built %v, want %v", c.cand, got, c.want)
		}
	}
}

func TestSmartSRADuplicateTimestampsDoNotChain(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	// Two requests with identical timestamps: the Timestamp Ordering Rule
	// requires strictly increasing times, so P13 cannot extend P1's session.
	st := figStream(ids, "P1", 0, "P13", 0)
	got := reconstruct(NewSmartSRA(g), st)
	if len(got) != 2 {
		t.Errorf("equal-timestamp pages chained: %v", got)
	}
	for _, s := range got {
		if !s.SatisfiesTimestampOrdering(session.DefaultRules()) {
			t.Errorf("output violates ordering rule: %v", s)
		}
	}
}

func TestReconstructAll(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	streams := []session.Stream{table1(ids), table3(ids)}
	got := ReconstructAll(NewSmartSRA(g), streams)
	if len(got) < 4 {
		t.Errorf("ReconstructAll produced %d sessions", len(got))
	}
	if got := ReconstructAll(NewTimeGap(), nil); len(got) != 0 {
		t.Errorf("ReconstructAll(nil streams) = %v", got)
	}
}

// randomStream builds a pseudo-random request stream over g: mostly
// link-following with occasional jumps, gaps, and duplicate timestamps, to
// stress the heuristics far from the happy path.
func randomStream(g *webgraph.Graph, rng *rand.Rand, n int) session.Stream {
	st := session.Stream{User: "fuzz"}
	now := t0
	cur := webgraph.PageID(rng.Intn(g.NumPages()))
	for i := 0; i < n; i++ {
		st.Entries = append(st.Entries, session.Entry{Page: cur, Time: now})
		switch rng.Intn(10) {
		case 0: // jump anywhere
			cur = webgraph.PageID(rng.Intn(g.NumPages()))
		case 1: // repeat with identical timestamp
			continue
		default:
			succ := g.Succ(cur)
			if len(succ) == 0 {
				cur = webgraph.PageID(rng.Intn(g.NumPages()))
			} else {
				cur = succ[rng.Intn(len(succ))]
			}
		}
		// Gaps: usually small, sometimes past ρ or δ.
		switch rng.Intn(12) {
		case 0:
			now = now.Add(12 * time.Minute)
		case 1:
			now = now.Add(40 * time.Minute)
		default:
			now = now.Add(time.Duration(1+rng.Intn(5)) * time.Minute)
		}
	}
	return st
}

// denseGraph is a small uniform site where most pages link to each other.
func denseGraph(t testing.TB, pages int, outDegree float64) *webgraph.Graph {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: pages, AvgOutDegree: outDegree, StartPageFraction: 0.25,
	}, rand.New(rand.NewSource(int64(pages))))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fuzzGraph(t testing.TB) *webgraph.Graph {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 60, AvgOutDegree: 4, StartPageFraction: 0.1,
	}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Property: Smart-SRA output always satisfies all three session rules.
func TestSmartSRAOutputsAlwaysValidProperty(t *testing.T) {
	g := fuzzGraph(t)
	h := NewSmartSRA(g)
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(g, rng, int(size)%80)
		for _, s := range reconstruct(h, st) {
			if !s.Valid(g, h.Rules) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Smart-SRA output contains no session subsumed by another
// (maximality, §3 "only maximal sequences are kept").
func TestSmartSRAMaximalityProperty(t *testing.T) {
	g := fuzzGraph(t)
	h := NewSmartSRA(g)
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(g, rng, int(size)%60)
		out := reconstruct(h, st)
		return len(session.MaximalOnly(out)) == len(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the time heuristics partition the input: concatenating their
// output sessions reproduces the stream exactly.
func TestTimeHeuristicsPartitionProperty(t *testing.T) {
	g := fuzzGraph(t)
	for _, h := range []Reconstructor{NewTimeTotal(), NewTimeGap()} {
		f := func(seed int64, size uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			st := randomStream(g, rng, int(size)%80)
			var rebuilt []session.Entry
			for _, s := range reconstruct(h, st) {
				rebuilt = append(rebuilt, s.Entries...)
			}
			if len(rebuilt) != len(st.Entries) {
				return false
			}
			for i := range rebuilt {
				if rebuilt[i] != st.Entries[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", h.Name(), err)
		}
	}
}

// Property: navigation-oriented output preserves the input requests in
// order once inserted backward movements are removed, and every output pair
// is either a forward or a backward hyperlink.
func TestNavigationPreservesInputProperty(t *testing.T) {
	g := fuzzGraph(t)
	h := NewNavigation(g)
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(g, rng, int(size)%60)
		var all []session.Entry
		for _, s := range reconstruct(h, st) {
			for i := 1; i < len(s.Entries); i++ {
				a, b := s.Entries[i-1].Page, s.Entries[i].Page
				if !g.HasEdge(a, b) && !g.HasEdge(b, a) {
					return false
				}
			}
			all = append(all, s.Entries...)
		}
		// Original entries appear as a subsequence (by page and time).
		j := 0
		for _, e := range all {
			if j < len(st.Entries) && e == st.Entries[j] {
				j++
			}
		}
		return j == len(st.Entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: all heuristics are deterministic.
func TestHeuristicsDeterministicProperty(t *testing.T) {
	g := fuzzGraph(t)
	hs := []Reconstructor{NewTimeTotal(), NewTimeGap(), NewNavigation(g), NewSmartSRA(g)}
	rng := rand.New(rand.NewSource(21))
	st := randomStream(g, rng, 50)
	for _, h := range hs {
		a := reconstruct(h, st)
		b := reconstruct(h, st)
		if len(a) != len(b) {
			t.Errorf("%s nondeterministic session count", h.Name())
			continue
		}
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Errorf("%s nondeterministic session %d", h.Name(), i)
			}
		}
	}
}

// Property: heuristics do not modify their input stream.
func TestHeuristicsDoNotMutateInput(t *testing.T) {
	g := fuzzGraph(t)
	rng := rand.New(rand.NewSource(31))
	st := randomStream(g, rng, 40)
	snapshot := append([]session.Entry(nil), st.Entries...)
	for _, h := range []Reconstructor{NewTimeTotal(), NewTimeGap(), NewNavigation(g), NewSmartSRA(g)} {
		_ = reconstruct(h, st)
		for i := range snapshot {
			if st.Entries[i] != snapshot[i] {
				t.Fatalf("%s mutated input at %d", h.Name(), i)
			}
		}
	}
}
