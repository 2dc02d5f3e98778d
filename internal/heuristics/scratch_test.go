package heuristics

import (
	"math/rand"
	"reflect"
	"testing"

	"smartsra/internal/session"
)

// deepClone copies sessions and their entry arrays.
func deepClone(in []session.Session) []session.Session {
	out := make([]session.Session, len(in))
	for i, s := range in {
		out[i] = s.Clone()
	}
	return out
}

// TestWithScratchMatchesAppendSessions pins the owned-scratch entry to the
// pooled one over random and chain-shaped streams, in both regimes: with no
// release everything appended stays valid (the kept regime core's
// slice-returning calls rely on); with a release after each "batch" the
// sessions appended next are right even though they reuse the released
// storage — including batches large enough to spill over several arena
// blocks, which the rewind then replaces with one.
func TestWithScratchMatchesAppendSessions(t *testing.T) {
	g := fuzzGraph(t)
	h := NewSmartSRA(g)
	h.InferBacktracks = true // more sessions per stream: more arena traffic
	rng := rand.New(rand.NewSource(5))
	var streams []session.Stream
	for i := 0; i < 300; i++ {
		gen := randomStream
		if i%2 == 0 {
			gen = chainStream
		}
		streams = append(streams, gen(g, rng, 5+rng.Intn(90)))
	}

	var want []session.Session
	for _, st := range streams {
		want = h.AppendSessions(want, st)
	}

	keptAppend, _ := h.WithScratch()
	var kept []session.Session
	for _, st := range streams {
		kept = keptAppend(kept, st)
	}
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("WithScratch without release: %d sessions differ from AppendSessions' %d", len(kept), len(want))
	}

	lentAppend, release := h.WithScratch()
	for _, batch := range []int{1, 7, 64, len(streams)} {
		var got, buf []session.Session
		for i := 0; i < len(streams); i += batch {
			buf = buf[:0]
			for _, st := range streams[i:min(i+batch, len(streams))] {
				buf = lentAppend(buf, st)
			}
			got = append(got, deepClone(buf)...)
			release()
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("WithScratch with release every %d streams: %d sessions differ from AppendSessions' %d", batch, len(got), len(want))
		}
	}
	if !reflect.DeepEqual(kept, want) {
		t.Fatal("sessions kept from one scratch changed while another was released and reused")
	}
}

// TestArenaRewind pins what release does to the storage: a period that fit
// its block gets the same block back, one that spilled settles on a single
// block that holds it (so equal periods stop allocating), and an oversized
// period is not kept.
func TestArenaRewind(t *testing.T) {
	var a entryArena
	first := a.alloc(10)
	a.rewind()
	if again := a.alloc(10); &again[0] != &first[0] {
		t.Error("rewind after a period that fit did not reuse the block")
	}
	a.rewind()

	period := func(n int) {
		for i := 0; i < n; i++ {
			a.alloc(100)
		}
		a.rewind()
	}
	period(200) // 20,000 entries: several arenaMaxBlock blocks
	if cap(a.block) < 20000 || len(a.block) != 0 {
		t.Fatalf("after a 20,000-entry period the rewound block has cap %d len %d", cap(a.block), len(a.block))
	}
	settled := &a.block[:1][0]
	period(200)
	if &a.block[:1][0] != settled || a.spilled != 0 {
		t.Error("an equal period after the rewind did not fit the settled block")
	}

	period(2 * arenaMaxRewound / 100)
	if cap(a.block) > arenaMaxRewound {
		t.Errorf("rewind kept a %d-entry block, cap is %d", cap(a.block), arenaMaxRewound)
	}
}

// unknownHeuristic hides a heuristic's concrete type from Lend.
type unknownHeuristic struct{ Reconstructor }

// TestLendMatchesReconstruct pins the lent per-user entry of every heuristic
// to its Reconstruct, user after user with a release in between — so each
// user's sessions are right even though they reuse the storage, or alias the
// stream, that the previous user's were handed out from — and the input
// stream is left as it was.
func TestLendMatchesReconstruct(t *testing.T) {
	g := fuzzGraph(t)
	rng := rand.New(rand.NewSource(9))
	var streams []session.Stream
	for i := 0; i < 200; i++ {
		gen := randomStream
		if i%3 == 0 {
			gen = chainStream
		}
		streams = append(streams, gen(g, rng, rng.Intn(120)))
	}
	limited := NewNavigation(g)
	limited.MaxGap = session.DefaultPageStay
	for _, h := range []Reconstructor{
		NewTimeTotal(), NewTimeGap(), NewNavigation(g), limited, NewSmartSRA(g),
		unknownHeuristic{NewTimeGap()},
	} {
		reconstruct, release := Lend(h)
		for pass := 0; pass < 2; pass++ {
			for i, st := range streams {
				before := append([]session.Entry(nil), st.Entries...)
				got := reconstruct(st)
				want := h.Reconstruct(st)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(deepClone(got), want)) {
					t.Fatalf("%s pass %d stream %d: lent sessions differ from Reconstruct's", h.Name(), pass, i)
				}
				release()
				if !reflect.DeepEqual(st.Entries, before) {
					t.Fatalf("%s stream %d: the input stream was modified", h.Name(), i)
				}
			}
		}
	}
}
