package prep

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/webgraph"
)

// synthRecords builds a record set large enough to clear the parallel gate,
// with shared timestamps (to exercise the stable sort), filtered records,
// and unresolvable URIs.
func synthRecords(n int) []clf.Record {
	rng := rand.New(rand.NewSource(11))
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	records := make([]clf.Record, n)
	for i := range records {
		rec := clf.Record{
			Host:  fmt.Sprintf("10.0.%d.%d", rng.Intn(4), rng.Intn(50)),
			Ident: "-", AuthUser: "-",
			Time:     t0.Add(time.Duration(rng.Intn(600)) * time.Second),
			Method:   "GET",
			URI:      fmt.Sprintf("/p%d", rng.Intn(40)),
			Protocol: "HTTP/1.1", Status: 200, Bytes: 1,
		}
		if rng.Intn(20) == 0 {
			rec.URI = "/external" // unresolvable
		}
		if rng.Intn(25) == 0 {
			rec.Status = 404 // filtered below
		}
		records[i] = rec
	}
	return records
}

func synthResolver(uri string) (webgraph.PageID, bool) {
	var id int
	if _, err := fmt.Sscanf(uri, "/p%d", &id); err != nil {
		return 0, false
	}
	return webgraph.PageID(id), true
}

// TestBuildStreamsWithMatchesSequential pins BuildStreamsWith to
// BuildStreams: same streams (users, entry order, timestamps) and same
// stats for any worker count.
func TestBuildStreamsWithMatchesSequential(t *testing.T) {
	records := synthRecords(40_000)
	opts := Options{
		Filter: func(r clf.Record) bool { return r.Status == 200 },
	}
	want, wantStats, err := BuildStreams(records, synthResolver, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 1, 2, 3, 4, 9} {
		got, gotStats, err := BuildStreamsWith(records, synthResolver, opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats {
			t.Fatalf("workers=%d: stats %+v vs %+v", workers, gotStats, wantStats)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d streams vs %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].User != want[i].User {
				t.Fatalf("workers=%d: stream %d user %q vs %q", workers, i, got[i].User, want[i].User)
			}
			if len(got[i].Entries) != len(want[i].Entries) {
				t.Fatalf("workers=%d: user %q has %d entries vs %d",
					workers, want[i].User, len(got[i].Entries), len(want[i].Entries))
			}
			for j := range want[i].Entries {
				if got[i].Entries[j] != want[i].Entries[j] {
					t.Fatalf("workers=%d: user %q entry %d: %+v vs %+v",
						workers, want[i].User, j, got[i].Entries[j], want[i].Entries[j])
				}
			}
		}
	}
}

func TestBuildStreamsWithNilResolver(t *testing.T) {
	if _, _, err := BuildStreamsWith(synthRecords(10_000), nil, Options{}, 4); err == nil {
		t.Error("nil resolver accepted")
	}
}
