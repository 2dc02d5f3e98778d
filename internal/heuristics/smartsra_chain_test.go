package heuristics

// Differential coverage for phase2's linear-chain fast path: reconstruction
// must be identical whether or not phase2Chain is allowed to fire. The
// reference runs every candidate through the general wave construction.
// Candidates are Phase 1's, or whole streams handed to phase2 directly: up
// to 100 entries across gaps past ρ and δ, the long candidates Phase 1
// never makes.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// reconstructWavesOnly mirrors a SmartSRA lane but routes every
// candidate through phase2Waves, bypassing the chain fast path.
func reconstructWavesOnly(h SmartSRA, stream session.Stream) []session.Session {
	return reconstructCandidates(h, stream, h.phase1(stream.Entries, nil), true)
}

// wholeStream is the candidate bounds of a stream Phase 1 does not split.
func wholeStream(entries []session.Entry) []int {
	if len(entries) == 0 {
		return nil
	}
	return []int{0, len(entries)}
}

// reconstructCandidates runs each candidate of stream, bounds as phase1
// returns them, through phase2 — through phase2Waves alone when wavesOnly —
// and keeps the maximal sessions, as a lane does on a stream in which a
// page repeats.
func reconstructCandidates(h SmartSRA, stream session.Stream, bounds []int, wavesOnly bool) []session.Session {
	return session.MaximalOnly(phase2Sessions(h, stream, bounds, wavesOnly))
}

// phase2Sessions is every session phase2 (or phase2Waves alone, when
// wavesOnly) builds for the candidates of stream, in order, unfiltered.
func phase2Sessions(h SmartSRA, stream session.Stream, bounds []int, wavesOnly bool) []session.Session {
	var out []session.Session
	scr := new(sraScratch)
	rho := h.Rules.PageStay.Nanoseconds()
	for b := 0; b+1 < len(bounds); b++ {
		cand := stream.Entries[bounds[b]:bounds[b+1]]
		var sessions [][]session.Entry
		if wavesOnly {
			t := make([]int64, len(cand))
			for i := range cand {
				t[i] = cand[i].Time.UnixNano()
			}
			sessions = h.phase2Waves(cand, t, scr, rho)
		} else {
			sessions = h.phase2(cand, scr)
		}
		for _, entries := range sessions {
			out = append(out, session.Session{User: stream.User, Entries: entries})
		}
	}
	return out
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

// Property: for any stream, a lane (fast path eligible) and the
// waves-only reference produce deeply equal output — same sessions, same
// order, same entry times — and so do phase2 and phase2Waves over whole
// streams.
func TestPhase2ChainDifferentialProperty(t *testing.T) {
	g := fuzzGraph(t)
	h := NewSmartSRA(g)
	// Each variant cuts a stream into candidates (for the reference) and
	// reconstructs it with the fast path eligible.
	variants := map[string]struct {
		cut         func([]session.Entry) []int
		reconstruct func(session.Stream) []session.Session
	}{
		"default": {func(e []session.Entry) []int { return h.phase1(e, nil) }, func(st session.Stream) []session.Session {
			return reconstruct(h, st)
		}},
		"no-phase1": {wholeStream, func(st session.Stream) []session.Session {
			return reconstructCandidates(h, st, wholeStream(st.Entries), false)
		}},
	}
	gens := map[string]func(*webgraph.Graph, *rand.Rand, int) session.Stream{
		"chain":  chainStream,
		"random": randomStream,
	}
	for vname, v := range variants {
		for gname, gen := range gens {
			t.Run(vname+"/"+gname, func(t *testing.T) {
				f := func(seed int64, size uint8) bool {
					rng := rand.New(rand.NewSource(seed))
					st := gen(g, rng, int(size)%100)
					got := v.reconstruct(st)
					want := reconstructCandidates(h, st, v.cut(st.Entries), true)
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

// A non-adjacent referrer does not make a chain ambiguous: 0 → 2 beside the
// chain 0 → 1 → 2 leaves 2 out of the wave that takes 1, and by its own wave
// every constructed session ends at 1. The waves build the chain alone, as
// the fast path does.
func TestPhase2ChainIgnoresAlternativeReferrer(t *testing.T) {
	b := webgraph.NewBuilder(3)
	for _, e := range [][2]webgraph.PageID{{0, 1}, {1, 2}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	h := NewSmartSRA(b.MustBuild())
	st := session.Stream{User: "u", Entries: []session.Entry{
		{Page: 0, Time: t0},
		{Page: 1, Time: t0.Add(1 * time.Minute)},
		{Page: 2, Time: t0.Add(2 * time.Minute)},
	}}
	want := []session.Session{{User: "u", Entries: st.Entries}}
	if got := reconstructWavesOnly(h, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("waves: got %v, want the chain [0 1 2] alone", got)
	}
	if got := reconstruct(h, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path: got %v, want the chain [0 1 2] alone", got)
	}
}
