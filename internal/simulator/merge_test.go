package simulator

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// referenceLog is Log as it was before the merge (then LogCombined): every
// stream's records laid end to end in Result order, then stable-sorted by
// time.
func referenceLog(r *Result, g *webgraph.Graph) []clf.Record {
	var records []clf.Record
	for i, st := range r.Streams {
		for j, e := range st.Entries {
			rec := clf.Record{
				Host: st.User, Ident: "-", AuthUser: "-", Time: e.Time,
				Method: "GET", URI: g.Label(e.Page), Protocol: "HTTP/1.1",
				Status: 200, Bytes: 1024 + int64(e.Page)*37%4096,
				UserAgent: "agent-simulator/1.0", Referer: clf.NoField,
			}
			if ref := r.Referrers[i][j]; g.Valid(ref) {
				rec.Referer = g.Label(ref)
			}
			records = append(records, rec)
		}
	}
	sort.SliceStable(records, func(i, j int) bool {
		return records[i].Time.Before(records[j].Time)
	})
	return records
}

// referenceSchedule is Schedule as it was before the merge, stable-sorted
// like referenceLog.
func referenceSchedule(r *Result, g *webgraph.Graph) []Request {
	var reqs []Request
	for i, st := range r.Streams {
		for j, e := range st.Entries {
			req := Request{User: st.User, URI: g.Label(e.Page), Referer: clf.NoField, At: e.Time}
			if ref := r.Referrers[i][j]; g.Valid(ref) {
				req.Referer = g.Label(ref)
			}
			reqs = append(reqs, req)
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool {
		return reqs[i].At.Before(reqs[j].At)
	})
	return reqs
}

// Schedule and Log merge what the stable sort sorted, so on every run they
// must equal it element for element (WriteLog writes Log's records, and
// TestLogBytesPinned holds its bytes): without proxies, with three-agent
// proxies (whose merged streams hold entries of equal time), and with every
// agent starting within one minute, where many streams tie on the same whole
// second. TestScheduleMatchesLog cannot see a wrong tie rule: both of its
// sides go through the same merge.
func TestLogOrderMatchesStableSort(t *testing.T) {
	g := paperSite(t)
	for _, c := range []struct {
		fraction float64
		window   time.Duration
	}{{0, 0}, {0.5, 0}, {0, time.Minute}, {0.5, time.Minute}} {
		p := PaperParams()
		p.Agents, p.Seed, p.StartWindow = 1000, 4, c.window
		p.ProxyFraction, p.ProxySize = c.fraction, 3
		res, err := Run(g, p)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("proxies %v×3, window %v", c.fraction, c.window)
		ties := 0
		want := referenceSchedule(res, g)
		for i := 1; i < len(want); i++ {
			if want[i].At.Equal(want[i-1].At) {
				ties++
			}
		}
		if ties == 0 {
			t.Errorf("%s: no two requests share a time, so the tie rule is untested", name)
		}
		if got := res.Schedule(g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Schedule differs from the stable sort at %d", name, firstDiff(got, want))
		}
		if got, want := res.Log(g), referenceLog(res, g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Log differs from the stable sort at %d", name, firstDiff(got, want))
		}
	}
}

// firstDiff is the first index at which a and b differ.
func firstDiff[E any](a, b []E) int {
	for i := range min(len(a), len(b)) {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return min(len(a), len(b))
}

// The merge itself, on random streams that are each in time order: no
// streams, empty streams, a single stream, times drawn from a few seconds
// (so entries tie within and across streams) and streams whose every entry
// has the same time. Its order must be a stable sort by time of the streams
// laid end to end, and one heap is reused throughout.
func TestMergeByTimeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var heap []cursor
	for n := range 2000 {
		k := rng.Intn(7)
		if n%10 == 0 {
			k = 1
		}
		spread := 1 + rng.Intn(5)
		if n%7 == 0 {
			spread = 1 // every entry at the same time
		}
		streams := make([][]session.Entry, k)
		type pos struct{ s, j int }
		var want []pos
		for s := range streams {
			at := origin
			for j := range rng.Intn(12) {
				at = at.Add(time.Duration(rng.Intn(spread)) * time.Second)
				streams[s] = append(streams[s], session.Entry{Page: webgraph.PageID(j), Time: at})
				want = append(want, pos{s, j})
			}
		}
		sort.SliceStable(want, func(a, b int) bool {
			return streams[want[a].s][want[a].j].Time.Before(streams[want[b].s][want[b].j].Time)
		})
		var got []pos
		heap = mergeByTime(heap, streams, func(s, j int) { got = append(got, pos{s, j}) })
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("case %d (%d streams, lengths %v): merge order\n %v\nwant\n %v", n, k, lens(streams), got, want)
		}
	}
}

func lens(streams [][]session.Entry) []int {
	n := make([]int, len(streams))
	for i, st := range streams {
		n[i] = len(st)
	}
	return n
}

// The log simgen writes is pinned byte for byte, in both formats: 2,000
// Table 5 agents on the paper's site at seed 3, without proxies and with
// half the agents behind three-agent proxies. TestRunBytesPinned pins the
// streams; these hashes pin the order they are rendered in. They were
// recorded when Log was a stable sort.
func TestLogBytesPinned(t *testing.T) {
	g := paperSite(t)
	for _, c := range []struct {
		fraction    float64
		plain, comb string
	}{
		{0, "8ce359acfa6c64a0b4f7b23a241d2d2bd921b6f156fd039fd667890833c085d2",
			"8b03be26a9911c74135fcafc8c86b68e35deb28b60334504ad9d57d0b4922a3f"},
		{0.5, "417dcf18c1ce55827229f98debe55253370a00a3cd412523f3dfcae506ebddbb",
			"03a04de216aa495aef0d70761f01c8ffdcba81e4e42636379096b0cd74e7c681"},
	} {
		p := PaperParams()
		p.Agents, p.Seed = 2000, 3
		p.ProxyFraction, p.ProxySize = c.fraction, 3
		res, err := Run(g, p)
		if err != nil {
			t.Fatal(err)
		}
		for combined, want := range map[bool]string{false: c.plain, true: c.comb} {
			h := sha256.New()
			w := clf.NewWriter(h)
			if combined {
				w = clf.NewCombinedWriter(h)
			}
			if err := res.WriteLog(w, g); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("proxies %v×3, combined %v: the log hashes to %s, pinned %s", c.fraction, combined, got, want)
			}
		}
	}
}
