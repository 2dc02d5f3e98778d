package eval

import (
	"fmt"
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
