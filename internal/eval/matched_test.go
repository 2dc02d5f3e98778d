package eval

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// proxyWorkload builds one simulated workload plus its Smart-SRA candidate
// set, with merged proxy identities so the per-user matching problems are
// uneven.
func proxyWorkload(t *testing.T) (real, cands []session.Session) {
	t.Helper()
	cfg := smallConfig()
	cfg.Params.Agents = 200
	cfg.Params.ProxyFraction = 0.3
	cfg.Params.ProxySize = 5
	g, err := Topology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run(g, cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	return res.Real, heuristics.ReconstructAll(heuristics.NewSmartSRA(g), res.Streams)
}

// ScoreMatched on a simulated population with proxy-merged users is the
// textbook sequential matching (naiveMatched).
func TestScoreMatchedWithMatchesSequential(t *testing.T) {
	real, cands := proxyWorkload(t)
	got := ScoreMatched(real, cands)
	if got.Real == 0 || got.Captured == 0 {
		t.Fatalf("degenerate workload: %+v", got)
	}
	if want := naiveMatched(real, cands); got != (Accuracy{Real: len(real), Captured: want}) {
		t.Errorf("ScoreMatched = %+v, naive matching %d", got, want)
	}
}

// Regression for the recursive tryAssign: a user whose augmenting chains
// thread through every session forces the search N levels deep. real[i] is
// the single page [i]; candidate j covers pages [j, j+1], so real i is
// capturable only by candidates i-1 and i. Feeding reals in descending order
// greedily assigns each to its lower candidate, and the final real (page 0)
// must re-thread the entire assignment — a depth-N augmenting path that
// overflowed the stack before the iterative rewrite.
func TestMatchUserDeepChain(t *testing.T) {
	const n = 5000
	mkSession := func(pages ...int) session.Session {
		s := session.Session{User: "proxy"}
		for _, p := range pages {
			s.Entries = append(s.Entries, session.Entry{Page: webgraph.PageID(p)})
		}
		return s
	}
	real := make([]session.Session, 0, n)
	for i := n - 1; i >= 0; i-- {
		real = append(real, mkSession(i))
	}
	cands := make([]session.Session, 0, n)
	for j := 0; j < n; j++ {
		cands = append(cands, mkSession(j, j+1))
	}
	if acc := ScoreMatched(real, cands); acc.Captured != n {
		t.Errorf("matched %d of %d reals; a perfect matching exists", acc.Captured, n)
	}
}

// A matcher is reused across users within one pass; stale state from a
// large problem must not leak into the next (smaller) one.
func TestMatcherReuseAcrossUsers(t *testing.T) {
	mkUser := func(user string, pages ...int) session.Session {
		s := session.Session{User: user}
		for _, p := range pages {
			s.Entries = append(s.Entries, session.Entry{Page: webgraph.PageID(p)})
		}
		return s
	}
	var real, cands []session.Session
	// User A: 40 reals, each capturable by its own candidate.
	for i := 0; i < 40; i++ {
		real = append(real, mkUser("a", i))
		cands = append(cands, mkUser("a", i))
	}
	// User B: 2 reals, only one capturable.
	real = append(real, mkUser("b", 100), mkUser("b", 101))
	cands = append(cands, mkUser("b", 100))
	// User C: no candidates at all.
	real = append(real, mkUser("c", 200))
	want := Accuracy{Real: 43, Captured: 41}
	if got := ScoreMatched(real, cands); got != want {
		t.Errorf("%+v, want %+v", got, want)
	}
}

// The capture graph holds exactly the pairs the relation's one definition,
// session.Captures, gives: adj[i] is {j : Captures(cand[j], real[i])} in
// ascending j, and Exists counts the non-empty rows. One matcher takes every
// user in turn, as a pass does, so an index entry an earlier user left
// behind shows as a wrong edge. The users have empty real and candidate sessions,
// pages repeated within a session, page IDs above every earlier user's (a
// page table sized from the first user would miss them), and one user has
// over 500 sessions on each side, a merged proxy's size.
func TestCaptureMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	sessions := func(n, pages int) []session.Session {
		out := make([]session.Session, n)
		for i := range out {
			// A small alphabet repeats pages within a session and makes
			// captures common; lengths start at 0.
			for k := rng.Intn(7); k > 0; k-- {
				out[i].Entries = append(out[i].Entries, session.Entry{Page: webgraph.PageID(rng.Intn(pages))})
			}
		}
		return out
	}
	pack := func(ss []session.Session) pageLists {
		var p pageLists
		for i := range ss {
			p.add(ss[i].Entries)
		}
		return p
	}
	var m matcher
	for u := 0; u < 400; u++ {
		nr, nc, pages := 1+rng.Intn(10), rng.Intn(10), 2+u/20
		if u == 200 {
			nr, nc = 520, 510
		}
		cand := sessions(nc, pages)
		real := sessions(nr, pages)
		// Half the real sessions are windows of a candidate, so most rows
		// have edges.
		for i := range real {
			if nc > 0 && rng.Intn(2) == 0 {
				c := cand[rng.Intn(nc)].Entries
				lo := rng.Intn(len(c) + 1)
				real[i].Entries = c[lo : lo+rng.Intn(len(c)-lo+1)]
			}
		}
		exists := m.capture(pack(real), pack(cand))
		want := 0
		for i := range real {
			var row []int
			for j := range cand {
				if session.Captures(cand[j], real[i]) {
					row = append(row, j)
				}
			}
			if len(row) > 0 {
				want++
			}
			if !slices.Equal(m.adj[i], row) {
				t.Fatalf("user %d real %d %v: adj %v, Captures gives %v", u, i, real[i], m.adj[i], row)
			}
		}
		if exists != want {
			t.Fatalf("user %d: Exists %d, Captures gives %d", u, exists, want)
		}
	}
	// MaximalOnly goes through the same containment index from 12 sessions
	// on. It must keep what the pairwise reading of Captures keeps: session i
	// goes when another session captures it and is longer, or is equal and
	// earlier. Sets below, at and above the switch, and one of 5,000.
	for _, n := range []int{2, 11, 12, 13, 60, 300, 5000} {
		for trial := 0; trial < 3; trial++ {
			set := sessions(n, 2+rng.Intn(40))
			// Windows of other sessions make drops and duplicates common.
			for i := range set {
				if rng.Intn(3) == 0 {
					c := set[rng.Intn(n)].Entries
					lo := rng.Intn(len(c) + 1)
					set[i].Entries = slices.Clip(c[lo : lo+rng.Intn(len(c)-lo+1)])
				}
			}
			for i := range set {
				set[i].User = fmt.Sprint(i) // tells duplicates apart
			}
			var want []session.Session
			for i := range set {
				dropped := false
				for j := range set {
					longer := len(set[j].Entries) > len(set[i].Entries)
					equal := len(set[j].Entries) == len(set[i].Entries) && j < i
					if j != i && (longer || equal) && session.Captures(set[j], set[i]) {
						dropped = true
						break
					}
				}
				if !dropped {
					want = append(want, set[i])
				}
			}
			got := session.MaximalOnly(set)
			if len(got) != len(want) {
				t.Fatalf("MaximalOnly over %d sessions keeps %d, pairwise Captures %d", n, len(got), len(want))
			}
			for i := range got {
				if got[i].User != want[i].User {
					t.Fatalf("MaximalOnly over %d sessions: survivor %d is session %s, pairwise Captures keeps %s", n, i, got[i].User, want[i].User)
				}
			}
		}
	}
}

// Score and ScoreMatched take session sets from outside, whose page IDs are
// whatever a session file holds. The page table follows the distinct pages,
// not the largest ID: scoring IDs near 2^31 allocates kilobytes, not a
// 16 GiB table.
func TestScoreHugePageIDs(t *testing.T) {
	mk := func(pages ...webgraph.PageID) session.Session {
		s := session.Session{User: "u"}
		for _, p := range pages {
			s.Entries = append(s.Entries, session.Entry{Page: p})
		}
		return s
	}
	real := []session.Session{mk(math.MaxInt32, 7), mk(7), mk(1 << 30)}
	cands := []session.Session{mk(3, math.MaxInt32, 7), mk(1<<30 - 1)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	matched, exists := ScoreMatched(real, cands), Score(real, cands)
	runtime.ReadMemStats(&after)
	if matched.Captured != 1 || exists.Captured != 2 {
		t.Errorf("matched %v, exists %v; want 1 and 2 of 3", matched, exists)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("scoring 3 sessions allocated %d bytes", n)
	}
}

func ExampleScoreMatched() {
	real := []session.Session{
		{User: "u", Entries: []session.Entry{{Page: 1}, {Page: 2}}},
		{User: "u", Entries: []session.Entry{{Page: 3}}},
	}
	cands := []session.Session{
		{User: "u", Entries: []session.Entry{{Page: 1}, {Page: 2}, {Page: 3}}},
	}
	// One candidate can be credited for at most one real session, no matter
	// how many it captures.
	fmt.Println(ScoreMatched(real, cands).String())
	// Output: 1/2 (50.0%)
}
