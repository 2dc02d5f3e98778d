package session

import (
	"math/rand"
	"slices"
	"testing"

	"smartsra/internal/webgraph"
)

// One Index, reset between rounds, lists for every wanted needle exactly the
// haystacks Captures says hold it, in ascending order; a yield that returns
// false stops the walk, and a needle never wanted is held by none.
func TestIndexMatchesCaptures(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	seq := func(pages int) []webgraph.PageID {
		s := make([]webgraph.PageID, rng.Intn(8))
		for k := range s {
			s[k] = webgraph.PageID(rng.Intn(pages))
		}
		return s
	}
	asSession := func(pages []webgraph.PageID) Session {
		s := Session{}
		for _, p := range pages {
			s.Entries = append(s.Entries, Entry{Page: p})
		}
		return s
	}
	var ix Index
	for round := 0; round < 300; round++ {
		pages := 1 + round/10
		needles := make([][]webgraph.PageID, rng.Intn(12))
		hays := make([][]webgraph.PageID, rng.Intn(12))
		for j := range hays {
			hays[j] = seq(pages)
		}
		for i := range needles {
			needles[i] = seq(pages)
			if len(hays) > 0 && rng.Intn(2) == 0 {
				h := hays[rng.Intn(len(hays))]
				lo := rng.Intn(len(h) + 1)
				needles[i] = h[lo : lo+rng.Intn(len(h)-lo+1)]
			}
			ix.Want(needles[i])
		}
		ix.Build(hays)
		for _, n := range needles {
			var want, got []int
			for j, h := range hays {
				if Captures(asSession(h), asSession(n)) {
					want = append(want, j)
				}
			}
			ix.Containers(n, func(j int) bool { got = append(got, j); return true })
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: needle %v in %v: Containers %v, Captures %v", round, n, hays, got, want)
			}
			var first []int
			ix.Containers(n, func(j int) bool { first = append(first, j); return false })
			if len(want) > 0 && !slices.Equal(first, want[:1]) || len(want) == 0 && first != nil {
				t.Fatalf("round %d: needle %v: a stopping yield saw %v, want the first of %v", round, n, first, want)
			}
		}
		unwanted := []webgraph.PageID{webgraph.PageID(pages + 3)}
		ix.Containers(unwanted, func(int) bool { t.Fatalf("round %d: a needle never wanted was found", round); return false })
		ix.Reset()
	}
}
