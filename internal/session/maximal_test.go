package session

import (
	"math/rand"
	"reflect"
	"testing"

	"smartsra/internal/webgraph"
)

// naiveMaximalOnly is the original quadratic all-pairs filter, kept as the
// semantic reference for the length-bucketed MaximalOnly: drop session i when
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

// The optimization contract: the length-bucketed pass is observationally
// identical to the naive O(n²) filter on arbitrary session sets.
func TestMaximalOnlyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2006))
	for trial := 0; trial < 300; trial++ {
		sessions := randomSessions(rng, rng.Intn(25))
		got := MaximalOnly(sessions)
		want := naiveMaximalOnly(sessions)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: MaximalOnly(%v)\n got %v\nwant %v", trial, sessions, got, want)
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
	// Survivors preserve input order even though probing is length-ordered.
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
