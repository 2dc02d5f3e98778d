package heuristics

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// deepClone copies sessions and their entry arrays.
func deepClone(in []session.Session) []session.Session {
	out := make([]session.Session, len(in))
	for i, s := range in {
		out[i] = s.Clone()
	}
	return out
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

// lendCases is every heuristic Lend knows and one it does not know.
func lendCases(g *webgraph.Graph) []Reconstructor {
	return []Reconstructor{
		NewTimeTotal(), NewTimeGap(), NewNavigation(g), NewSmartSRA(g),
		unknownHeuristic{NewTimeGap()},
	}
}

// lendStreams draws n random, chain-shaped and dense streams of up to max
// entries.
func lendStreams(g *webgraph.Graph, seed int64, n, max int) []session.Stream {
	rng := rand.New(rand.NewSource(seed))
	streams := make([]session.Stream, n)
	for i := range streams {
		gen := randomStream
		switch i % 3 {
		case 0:
			gen = chainStream
		case 1:
			gen = denseStream
		}
		streams[i] = gen(g, rng, rng.Intn(max))
	}
	return streams
}

// denseStream is a random walk over g under a minute a step, so Phase 1 cuts
// it only at δ and Smart-SRA's candidates are long: each wave page extends
// every session ending at one of its referrers, so a stream makes many
// sessions — more arena traffic per stream than the other shapes.
func denseStream(g *webgraph.Graph, rng *rand.Rand, n int) session.Stream {
	st := session.Stream{User: "dense"}
	now := t0
	cur := webgraph.PageID(rng.Intn(g.NumPages()))
	for i := 0; i < n; i++ {
		st.Entries = append(st.Entries, session.Entry{Page: cur, Time: now})
		if succ := g.Succ(cur); len(succ) > 0 && rng.Intn(4) != 0 {
			cur = succ[rng.Intn(len(succ))]
		} else {
			cur = webgraph.PageID(rng.Intn(g.NumPages()))
		}
		now = now.Add(time.Duration(5+rng.Intn(55)) * time.Second)
	}
	return st
}

// TestLendMatchesReconstruct pins every heuristic's lane to a fresh lane per
// stream over random and chain-shaped streams, in both regimes. A lane that is
// never released keeps everything it appended, and none of it aliases the
// input: each stream it read is overwritten right after, and its sessions
// must still read right (the regime ReconstructAll and core's
// slice-returning calls rely on). A lane released after every 1, 7, 64 or
// all streams appends the right sessions although they reuse the released
// storage — including batches large enough to spill over several arena
// blocks, which the rewind then replaces with one. No stream is modified.
func TestLendMatchesReconstruct(t *testing.T) {
	g := fuzzGraph(t)
	streams := lendStreams(g, 9, 200, 120)
	before := make([]session.Stream, len(streams))
	for i, st := range streams {
		before[i] = session.Stream{User: st.User, Entries: slices.Clone(st.Entries)}
	}
	for _, h := range lendCases(g) {
		var want []session.Session
		for _, st := range streams {
			want = append(want, reconstruct(h, st)...)
		}

		keptAppend, _ := h.Lend()
		var kept []session.Session
		for _, st := range streams {
			own := slices.Clone(st.Entries)
			kept = keptAppend(kept, session.Stream{User: st.User, Entries: own})
			for i := range own {
				own[i] = session.Entry{Page: webgraph.PageID(math.MinInt32)}
			}
		}
		if !reflect.DeepEqual(kept, want) {
			t.Fatalf("%s, never released: %d sessions differ from a fresh lane's %d", h.Name(), len(kept), len(want))
		}

		appendTo, release := h.Lend()
		for _, batch := range []int{1, 7, 64, len(streams)} {
			var got, buf []session.Session
			for i := 0; i < len(streams); i += batch {
				buf = buf[:0]
				for _, st := range streams[i:min(i+batch, len(streams))] {
					buf = appendTo(buf, st)
				}
				got = append(got, deepClone(buf)...)
				release()
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, released every %d streams: %d sessions differ from a fresh lane's %d", h.Name(), batch, len(got), len(want))
			}
		}
		if !reflect.DeepEqual(kept, want) {
			t.Fatalf("%s: sessions kept from one lane changed while another was released and reused", h.Name())
		}
		if !reflect.DeepEqual(streams, before) {
			t.Fatalf("%s: an input stream was modified", h.Name())
		}
	}
}

// TestConcurrentReconstruction: a heuristic is safe for concurrent use
// because every lane has storage of its own. One shared value of each
// heuristic serves 8 goroutines at once, each running a fresh lane per
// stream, ReconstructAll and one lane of its own, and every result must
// equal a sequential run. Under -race a scratch two lanes share is a
// reported race.
func TestConcurrentReconstruction(t *testing.T) {
	g := fuzzGraph(t)
	streams := lendStreams(g, 13, 60, 80)
	for _, h := range lendCases(g) {
		want := ReconstructAll(h, streams)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var each, lent, buf []session.Session
				for _, st := range streams {
					each = append(each, reconstruct(h, st)...)
				}
				all := ReconstructAll(h, streams)
				appendTo, release := h.Lend()
				for _, st := range streams {
					buf = appendTo(buf[:0], st)
					lent = append(lent, deepClone(buf)...)
					release()
				}
				for name, got := range map[string][]session.Session{"a lane per stream": each, "ReconstructAll": all, "Lend": lent} {
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: concurrent %s gave %d sessions, sequential %d", h.Name(), name, len(got), len(want))
					}
				}
			}()
		}
		wg.Wait()
	}
}
