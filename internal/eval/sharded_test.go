package eval

import (
	"fmt"
	"reflect"
	"testing"

	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// shardedWorkload builds one simulated workload plus its Smart-SRA candidate
// set for the sharded-scorer tests.
func shardedWorkload(t *testing.T) (real, cands []session.Session) {
	t.Helper()
	cfg := smallConfig()
	cfg.Params.Agents = 200
	// Merged proxy identities make the per-user matching problems uneven,
	// which is exactly where sharding bugs would show.
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

// The per-user sharding contract: identical Accuracy for any worker count,
// because maximum-matching size is unique per user and summation commutes.
// Run under -race to also pin data-race freedom of the worker pool.
func TestScoreMatchedWithMatchesSequential(t *testing.T) {
	real, cands := shardedWorkload(t)
	seq := ScoreMatchedWith(real, cands, 1)
	if seq.Real == 0 || seq.Captured == 0 {
		t.Fatalf("degenerate workload: %+v", seq)
	}
	for _, workers := range []int{0, 2, 8} {
		if got := ScoreMatchedWith(real, cands, workers); got != seq {
			t.Errorf("workers=%d: accuracy %+v, want %+v", workers, got, seq)
		}
	}
	if got := ScoreMatched(real, cands); got != seq {
		t.Errorf("ScoreMatched = %+v, want sequential %+v", got, seq)
	}
}

// The point-level contract: the composed budget (scorer pool × per-user
// shards) produces bit-identical PointResults for any worker budget.
func TestEvaluatePointWithBudgets(t *testing.T) {
	cfg := smallConfig()
	cfg.IncludeReferrer = true
	g, err := Topology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := EvaluatePointWith(g, cfg, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		par, err := EvaluatePointWith(g, cfg, RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: point differs from sequential", workers)
		}
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
	for _, workers := range []int{1, 4} {
		acc := ScoreMatchedWith(real, cands, workers)
		if acc.Captured != n {
			t.Errorf("workers=%d: matched %d of %d reals; a perfect matching exists",
				workers, acc.Captured, n)
		}
	}
}

// A matcher is reused across users within one worker; stale state from a
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
	for _, workers := range []int{1, 3} {
		if got := ScoreMatchedWith(real, cands, workers); got != want {
			t.Errorf("workers=%d: %+v, want %+v", workers, got, want)
		}
	}
}

// split must never oversubscribe: the pool times each task's share stays
// within the total budget, and both factors stay >= 1 for every
// (workers, n) combination. (workers=0 means GOMAXPROCS, so the explicit
// cases here use positive budgets for a machine-independent bound.)
func TestRunOptionsSplit(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 8, 64} {
		for _, n := range []int{1, 2, 5, 40} {
			opts := RunOptions{Workers: workers}
			pool, perTask := opts.split(n)
			if pool < 1 || perTask < 1 {
				t.Fatalf("workers=%d n=%d: split=(%d,%d)", workers, n, pool, perTask)
			}
			if pool > workers || pool > n {
				t.Errorf("workers=%d n=%d: pool %d exceeds min(budget, tasks)", workers, n, pool)
			}
			if pool*perTask > workers {
				t.Errorf("workers=%d n=%d: pool*perTask=%d oversubscribes budget %d",
					workers, n, pool*perTask, workers)
			}
		}
	}
	if pool, perTask := (RunOptions{}).split(4); pool < 1 || perTask < 1 {
		t.Errorf("zero-value split = (%d,%d)", pool, perTask)
	}
}

func ExampleScoreMatchedWith() {
	real := []session.Session{
		{User: "u", Entries: []session.Entry{{Page: 1}, {Page: 2}}},
		{User: "u", Entries: []session.Entry{{Page: 3}}},
	}
	cands := []session.Session{
		{User: "u", Entries: []session.Entry{{Page: 1}, {Page: 2}, {Page: 3}}},
	}
	// One candidate can be credited for at most one real session, no matter
	// how many it captures — and the worker count never changes the score.
	fmt.Println(ScoreMatchedWith(real, cands, 4).String())
	// Output: 1/2 (50.0%)
}
