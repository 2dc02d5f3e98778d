package heuristics

// Differential coverage for phase2's linear-chain fast path: reconstruction
// must be identical whether or not phase2Chain is allowed to fire. The
// reference runs every candidate through the general wave construction.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// reconstructWavesOnly mirrors SmartSRA.Reconstruct but routes every
// candidate through phase2Waves, bypassing the chain fast path.
func reconstructWavesOnly(h SmartSRA, stream session.Stream) []session.Session {
	var out []session.Session
	scr := new(sraScratch)
	rho := h.Rules.PageStay.Nanoseconds()
	scr.bounds = h.phase1(stream.Entries, scr.bounds[:0])
	for b := 0; b+1 < len(scr.bounds); b++ {
		cand := stream.Entries[scr.bounds[b]:scr.bounds[b+1]]
		t := make([]int64, len(cand))
		for i := range cand {
			t[i] = cand[i].Time.UnixNano()
		}
		for _, entries := range h.phase2Waves(cand, t, scr, rho) {
			out = append(out, session.Session{User: stream.User, Entries: entries})
		}
	}
	return session.MaximalOnly(out)
}

// chainStream follows topology successors with small strictly increasing
// gaps, so most candidates are pure referrer chains and the fast path
// fires; occasional jumps, repeats, and long gaps keep the slow path in
// play within the same stream.
func chainStream(g *webgraph.Graph, rng *rand.Rand, n int) session.Stream {
	st := session.Stream{User: "fuzz"}
	now := t0
	cur := webgraph.PageID(rng.Intn(g.NumPages()))
	for i := 0; i < n; i++ {
		st.Entries = append(st.Entries, session.Entry{Page: cur, Time: now})
		if rng.Intn(20) == 0 {
			cur = webgraph.PageID(rng.Intn(g.NumPages()))
		} else if succ := g.Succ(cur); len(succ) > 0 {
			cur = succ[rng.Intn(len(succ))]
		}
		switch rng.Intn(25) {
		case 0:
			now = now.Add(11 * time.Minute) // past ρ: phase1 split
		case 1: // identical timestamp: not a chain
		default:
			now = now.Add(time.Duration(1+rng.Intn(120)) * time.Second)
		}
	}
	return st
}

// Property: for any stream, Reconstruct (fast path eligible) and the
// waves-only reference produce deeply equal output — same sessions, same
// order, same entry times.
func TestPhase2ChainDifferentialProperty(t *testing.T) {
	g := fuzzGraph(t)
	variants := map[string]func(SmartSRA) SmartSRA{
		"default":    func(h SmartSRA) SmartSRA { return h },
		"backtracks": func(h SmartSRA) SmartSRA { h.InferBacktracks = true; return h },
		"no-phase1":  func(h SmartSRA) SmartSRA { h.SkipPhase1 = true; h.InferBacktracks = true; return h },
	}
	gens := map[string]func(*webgraph.Graph, *rand.Rand, int) session.Stream{
		"chain":  chainStream,
		"random": randomStream,
	}
	for vname, mod := range variants {
		for gname, gen := range gens {
			t.Run(vname+"/"+gname, func(t *testing.T) {
				h := mod(NewSmartSRA(g))
				f := func(seed int64, size uint8) bool {
					rng := rand.New(rand.NewSource(seed))
					st := gen(g, rng, int(size)%100)
					got := h.Reconstruct(st)
					want := reconstructWavesOnly(h, st)
					if !reflect.DeepEqual(got, want) {
						t.Logf("seed=%d size=%d: fast=%d sessions, waves=%d", seed, size, len(got), len(want))
						return false
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// The fast path must reject a candidate with a time-valid alternative
// (non-adjacent) referrer when backtrack inference is on: the inferred
// [B, e] session is not contiguous in the chain and must survive.
func TestPhase2ChainBailsOnAlternativeReferrer(t *testing.T) {
	b := webgraph.NewBuilder(3)
	for _, e := range [][2]webgraph.PageID{{0, 1}, {1, 2}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	h := NewSmartSRA(g)
	h.InferBacktracks = true
	st := session.Stream{User: "u", Entries: []session.Entry{
		{Page: 0, Time: t0},
		{Page: 1, Time: t0.Add(1 * time.Minute)},
		{Page: 2, Time: t0.Add(2 * time.Minute)},
	}}
	got := h.Reconstruct(st)
	if len(got) != 2 {
		t.Fatalf("want chain [0 1 2] plus inferred [0 2], got %d sessions: %v", len(got), got)
	}
	if want := reconstructWavesOnly(h, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path diverges: got %v want %v", got, want)
	}
}
