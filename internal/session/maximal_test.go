package session

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"smartsra/internal/webgraph"
)

// naiveMaximalOnly is the original quadratic all-pairs filter, kept as the
// semantic reference for MaximalOnly (a pairwise scan on small sets, the
// containment Index on large ones): drop session i when
// some other session j subsumes it strictly (longer), or equals it with j < i
// (duplicates keep their first occurrence).
func naiveMaximalOnly(sessions []Session) []Session {
	out := make([]Session, 0, len(sessions))
	for i, s := range sessions {
		subsumed := false
		for j, other := range sessions {
			if i == j {
				continue
			}
			if !Subsumes(other, s) {
				continue
			}
			if other.Len() > s.Len() || j < i {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, s)
		}
	}
	return out
}

// randomSessions draws sessions over a tiny page alphabet so subsumption,
// duplication, and equal-length collisions all occur frequently.
func randomSessions(rng *rand.Rand, n int) []Session {
	sessions := make([]Session, n)
	for i := range sessions {
		length := 1 + rng.Intn(6)
		s := Session{User: "u"}
		for k := 0; k < length; k++ {
			s.Entries = append(s.Entries, Entry{Page: webgraph.PageID(rng.Intn(4))})
		}
		sessions[i] = s
	}
	return sessions
}

// The optimization contract: both passes are observationally identical to
// the naive O(n²) filter on arbitrary session sets, on a fresh filter and on
// one reused from set to set (its buffers let go after a large set).
func TestMaximalOnlyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2006))
	var reused MaximalFilter
	for trial := 0; trial < 300; trial++ {
		sessions := randomSessions(rng, rng.Intn(25))
		var want []Session
		if trial%50 == 49 {
			// More pages than a filter keeps; too many pairs for the naive
			// filter, so the fresh one is the reference.
			sessions = walkSessions(rng, 3000, 64)
			want = MaximalOnly(sessions)
		} else {
			want = naiveMaximalOnly(sessions)
		}
		if got := MaximalOnly(sessions); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: MaximalOnly(%v)\n got %v\nwant %v", trial, sessions, got, want)
		}
		if got := reused.Keep(sessions); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: a reused filter keeps %v\nwant %v", trial, got, want)
		}
		if cap(reused.pages) > maxKeptPages {
			t.Fatalf("trial %d: the filter keeps %d pages", trial, cap(reused.pages))
		}
	}
}

func TestMaximalOnlyEdgeCases(t *testing.T) {
	if got := MaximalOnly(nil); len(got) != 0 {
		t.Errorf("nil input: %v", got)
	}
	one := []Session{mk("u", 1, 0)}
	if got := MaximalOnly(one); !reflect.DeepEqual(got, one) {
		t.Errorf("singleton: %v", got)
	}
	// Exact duplicates: first occurrence survives.
	dup := []Session{mk("u", 1, 0, 2, 1), mk("u", 1, 5, 2, 6)}
	got := MaximalOnly(dup)
	if len(got) != 1 || !reflect.DeepEqual(got[0], dup[0]) {
		t.Errorf("duplicates: %v", got)
	}
	// A strictly subsuming session wins regardless of position.
	sub := []Session{mk("u", 2, 0), mk("u", 1, 1, 2, 2, 3, 3)}
	got = MaximalOnly(sub)
	if len(got) != 1 || !reflect.DeepEqual(got[0], sub[1]) {
		t.Errorf("subsumption: %v", got)
	}
	// Sets the Index cannot take go pairwise: a negative page, and a first
	// page far above the set's size.
	for _, odd := range []int{-1, 1 << 30} {
		set := make([]Session, indexedMaximalMin+1)
		for i := range set {
			set[i] = mk("u", i, 0, i+1, 1)
		}
		set[3] = mk("u", odd, 0)
		set[5] = mk("u", 4, 0)
		if got, want := MaximalOnly(set), naiveMaximalOnly(set); !reflect.DeepEqual(got, want) || len(got) != len(set)-1 {
			t.Errorf("page %d: kept %d of %d, want %d", odd, len(got), len(set), len(want))
		}
	}
	// Survivors preserve input order.
	mixed := []Session{mk("u", 1, 0), mk("u", 5, 1, 6, 2), mk("u", 3, 3)}
	got = MaximalOnly(mixed)
	want := []Session{mixed[0], mixed[1], mixed[2]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order: %v", got)
	}
}

// Captures over bare page sequences: a contiguous run, an interrupted one,
// and an empty needle and haystack.
func TestCapturesContiguity(t *testing.T) {
	pages := func(ps ...webgraph.PageID) Session {
		s := Session{User: "u"}
		for _, p := range ps {
			s.Entries = append(s.Entries, Entry{Page: p})
		}
		return s
	}
	hay := pages(1, 9, 3, 5, 8)
	if !Captures(hay, pages(9, 3, 5)) {
		t.Error("contiguous run not found")
	}
	if Captures(hay, pages(1, 3, 5)) {
		t.Error("interrupted subsequence reported contiguous")
	}
	if !Captures(hay, pages()) {
		t.Error("empty needle must be vacuously contained")
	}
	if Captures(pages(), pages(1)) {
		t.Error("nonempty needle found in empty haystack")
	}
}

// walkSessions draws n sessions as link walks over a random 300-page site
// with 15 links a page, Smart-SRA's output shape: a quarter of them are
// windows of an earlier session, so some are subsumed and dropped.
func walkSessions(rng *rand.Rand, n, maxLen int) []Session {
	const pages, links = 300, 15
	succ := make([][]webgraph.PageID, pages)
	for p := range succ {
		for range links {
			succ[p] = append(succ[p], webgraph.PageID(rng.Intn(pages)))
		}
	}
	sessions := make([]Session, n)
	for i := range sessions {
		if i > 0 && rng.Intn(4) == 0 {
			e := sessions[rng.Intn(i)].Entries
			lo := rng.Intn(len(e))
			sessions[i].Entries = e[lo : lo+1+rng.Intn(len(e)-lo)]
			continue
		}
		p := webgraph.PageID(rng.Intn(pages))
		for k := 1 + rng.Intn(maxLen); k > 0; k-- {
			sessions[i].Entries = append(sessions[i].Entries, Entry{Page: p})
			p = succ[p][rng.Intn(links)]
		}
	}
	return sessions
}

// BenchmarkMaximalOnly times the pairwise scan and the indexed pass on sets
// of each size; indexedMaximalMin is the smallest size where the indexed
// pass is the faster.
func BenchmarkMaximalOnly(b *testing.B) {
	for _, n := range []int{4, 8, 10, 12, 16, 24, 32, 64, 256} {
		sets := make([][]Session, 64)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range sets {
			sets[i] = walkSessions(rng, n, 12)
		}
		var f MaximalFilter
		indexed := func(s []Session) []Session {
			out, _ := f.indexed(s)
			return out
		}
		for _, v := range []struct {
			name string
			f    func([]Session) []Session
		}{
			{"pairwise", pairwise},
			{"indexed", indexed},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, v.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.f(sets[i%len(sets)])
				}
			})
		}
	}
}
