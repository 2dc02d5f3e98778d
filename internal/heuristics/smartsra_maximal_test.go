package heuristics

// Maximality by construction: where no page repeats in a stream, Phase 2's
// waves build no session another one holds and no duplicate (DESIGN.md §3),
// so Smart-SRA runs the maximality filter only on streams with a repeat.
// The property test holds the argument on repeat-free streams; FuzzPhase2
// holds the guard to the filter's output on any stream.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// distinctStream is a walk of n pages of g (n at most its page count) that
// never revisits one: mostly to an unvisited successor, so chains and
// branching candidates both occur, else to a page drawn at random. Gaps are
// usually short, and now and then a tie or past ρ or δ.
func distinctStream(g *webgraph.Graph, rng *rand.Rand, n int) session.Stream {
	st := session.Stream{User: "distinct"}
	seen := make([]bool, g.NumPages())
	order := rng.Perm(g.NumPages()) // the random draws, in turn
	now := t0
	cur := webgraph.PageID(order[0])
	for {
		seen[cur] = true
		st.Entries = append(st.Entries, session.Entry{Page: cur, Time: now})
		if len(st.Entries) == n {
			return st
		}
		var succ []webgraph.PageID
		for _, s := range g.Succ(cur) {
			if !seen[s] {
				succ = append(succ, s)
			}
		}
		if len(succ) > 0 && rng.Intn(4) != 0 {
			cur = succ[rng.Intn(len(succ))]
		} else {
			for seen[order[0]] {
				order = order[1:]
			}
			cur = webgraph.PageID(order[0])
		}
		switch rng.Intn(16) {
		case 0: // a tie
		case 1:
			now = now.Add(11 * time.Minute)
		case 2:
			now = now.Add(40 * time.Minute)
		default:
			now = now.Add(time.Duration(1+rng.Intn(300)) * time.Second)
		}
	}
}

// Property: on random topologies and streams in which no page repeats, the
// maximality filter drops nothing from what phase2Waves or phase2 (with its
// chain fast path) builds, over Phase 1's candidates and over whole streams
// handed to Phase 2 as one candidate.
func TestSmartSRAMaximalByConstructionProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pages := 4 + rng.Intn(28)
		g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
			Pages: pages, AvgOutDegree: 1 + rng.Float64()*float64(pages)/3, StartPageFraction: 0.25,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		h := NewSmartSRA(g)
		st := distinctStream(g, rng, int(size)%pages+1)
		for _, bounds := range [][]int{h.phase1(st.Entries, nil), wholeStream(st.Entries)} {
			for _, wavesOnly := range []bool{true, false} {
				out := phase2Sessions(h, st, bounds, wavesOnly)
				if kept := session.MaximalOnly(out); len(kept) != len(out) {
					t.Logf("seed=%d size=%d bounds=%v wavesOnly=%v: the filter kept %d of %d sessions",
						seed, size, bounds, wavesOnly, len(kept), len(out))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// maxFuzzEntries bounds FuzzPhase2's stream: on a complete site the maximal
// paths of n entries number up to 2ⁿ⁻¹.
const maxFuzzEntries = 12

// phase2Input encodes FuzzPhase2's input: the page count less 2, the link
// bitmap (bit u·pages+v for a link u → v), then a (page, gap) byte pair per
// entry, as decodePhase2 reads them.
func phase2Input(pages int, links [][2]int, entries [][2]byte) []byte {
	bitmap := make([]byte, (pages*pages+7)/8)
	for _, l := range links {
		k := l[0]*pages + l[1]
		bitmap[k/8] |= 1 << (k % 8)
	}
	data := append([]byte{byte(pages - 2)}, bitmap...)
	for _, e := range entries {
		data = append(data, e[0], e[1])
	}
	return data
}

// decodePhase2 reads a site of 2–15 pages and a stream of up to
// maxFuzzEntries entries from data. A gap byte g is 0 s (a tie) for 0,
// 4g s (past ρ from 151) below 200, and g−199 times 10 min above.
func decodePhase2(t testing.TB, data []byte) (*webgraph.Graph, session.Stream) {
	var st session.Stream
	if len(data) == 0 {
		return webgraph.NewBuilder(0).MustBuild(), st
	}
	pages := 2 + int(data[0])%14
	data = data[1:]
	b := webgraph.NewBuilder(pages)
	for k := 0; k < pages*pages; k++ {
		if u, v := k/pages, k%pages; u != v && k/8 < len(data) && data[k/8]&(1<<(k%8)) != 0 {
			if err := b.AddEdge(webgraph.PageID(u), webgraph.PageID(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	data = data[min(len(data), (pages*pages+7)/8):]
	now := t0
	for ; len(data) >= 2 && len(st.Entries) < maxFuzzEntries; data = data[2:] {
		switch g := time.Duration(data[1]); {
		case g < 200:
			now = now.Add(4 * g * time.Second)
		default:
			now = now.Add((g - 199) * 10 * time.Minute)
		}
		st.Entries = append(st.Entries, session.Entry{Page: webgraph.PageID(int(data[0]) % pages), Time: now})
	}
	st.User = "fuzz"
	return b.MustBuild(), st
}

// FuzzPhase2 decodes a small site and a stream and reconstructs it with
// Smart-SRA. Every session must satisfy the three rules (Session.Valid),
// and the output must equal the unguarded one: every candidate through
// phase2, then the maximality filter over the whole stream. The seeds hold
// repeats a guard must see although they are not adjacent: a page again in
// a later candidate, and again within one candidate.
func FuzzPhase2(f *testing.F) {
	f.Add(phase2Input(4, [][2]int{{0, 1}, {1, 2}}, [][2]byte{{0, 30}, {1, 30}, {2, 30}}))
	// [0] [2], then [0 1]: page 0's first session sits inside a later one.
	f.Add(phase2Input(3, [][2]int{{0, 1}}, [][2]byte{{0, 0}, {2, 30}, {0, 170}, {1, 30}}))
	// One candidate, 0 2 1 0 1 over minutes 0 5 11 12 13: the first 1 is
	// more than ρ after the first 0, so waves build [0 1] [0] [2] [1], and
	// the filter keeps [0 1] [2].
	f.Add(phase2Input(3, [][2]int{{0, 1}}, [][2]byte{{0, 0}, {2, 75}, {1, 90}, {0, 15}, {1, 15}}))
	f.Add(phase2Input(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {1, 4}},
		[][2]byte{{0, 0}, {1, 15}, {2, 15}, {3, 15}, {4, 15}, {3, 220}, {4, 15}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, st := decodePhase2(t, data)
		h := NewSmartSRA(g)
		got := reconstruct(h, st)
		for _, s := range got {
			if !s.Valid(g, h.Rules) {
				t.Fatalf("session %v breaks a Smart-SRA rule", pages(s.Entries))
			}
		}
		if want := reconstructCandidates(h, st, h.phase1(st.Entries, nil), false); !reflect.DeepEqual(got, want) {
			t.Fatalf("guarded output %d sessions, the filter's %d", len(got), len(want))
		}
	})
}
