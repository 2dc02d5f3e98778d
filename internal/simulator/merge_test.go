package simulator

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
// streams, empty streams, a single stream, and five kinds of times.
//   - Whole seconds a few seconds apart, so entries tie within and across
//     streams, or all at one time.
//   - Fractions of a second apart, from a first time off a whole second, so
//     one second holds different times from one stream and from several.
//   - Up to years apart, so the span holds more seconds than there are
//     entries and the buckets are wider than a second.
//   - The same, before 1970.
//   - Drawn from the earliest and latest times UnixNano can hold, whose span
//     overflows a signed difference.
//
// Its order must be a stable sort by time of the streams laid end to end,
// one scratch is reused throughout, and no order uses more buckets than
// entries. The kinds must also produce what they are there for: ties,
// different times within one second of one stream and of two, and spans of
// more seconds than entries.
func TestMergeByTimeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var order timeOrder
	ends := []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 1e9, -1e9 - 1, -1, 0, 1, 1e9, math.MaxInt64 - 1e9, math.MaxInt64 - 1, math.MaxInt64}
	var ties, coarse int
	subSecond := map[bool]int{} // by whether the two entries are of one stream
	for n := range 5000 {
		k := rng.Intn(7)
		if n%10 == 0 {
			k = 1
		}
		spread := 1 + rng.Intn(5)
		if n%7 == 0 {
			spread = 1 // every entry at the same time
		}
		kind := n % 5
		start := origin
		switch kind {
		case 1:
			start = origin.Add(time.Duration(rng.Int63n(1e9)))
		case 3:
			start = time.Date(1901, 12, 14, 0, 0, 0, rng.Intn(2)*5e8, time.UTC)
		}
		streams := make([][]session.Entry, k)
		type pos struct{ s, j int }
		var want []pos
		for s := range streams {
			at, m := start, rng.Intn(12)
			var extremes []int64
			if kind == 4 {
				for range m {
					extremes = append(extremes, ends[rng.Intn(len(ends))])
				}
				slices.Sort(extremes)
			}
			for j := range m {
				switch kind {
				case 0:
					at = at.Add(time.Duration(rng.Intn(spread)) * time.Second)
				case 1:
					at = at.Add(time.Duration(rng.Intn(spread)) * 250 * time.Millisecond)
				case 2, 3:
					at = at.Add(time.Duration(rng.Intn(spread)) * time.Duration(rng.Int63n(int64(3*365*24*time.Hour))))
				case 4:
					at = time.Unix(0, extremes[j])
				}
				streams[s] = append(streams[s], session.Entry{Page: webgraph.PageID(j), Time: at})
				want = append(want, pos{s, j})
			}
		}
		sort.SliceStable(want, func(a, b int) bool {
			return streams[want[a].s][want[a].j].Time.Before(streams[want[b].s][want[b].j].Time)
		})
		var got []pos
		order.mergeByTime(streams, func(s, j int) { got = append(got, pos{s, j}) })
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("case %d (kind %d, %d streams, lengths %v): merge order\n %v\nwant\n %v", n, kind, k, lens(streams), got, want)
		}
		if len(want) == 0 {
			continue
		}
		at := func(p pos) time.Time { return streams[p.s][p.j].Time }
		second := func(p pos) time.Duration { return at(p).Sub(at(want[0])) / time.Second }
		for i := 1; i < len(want); i++ {
			switch a, b := want[i-1], want[i]; {
			case at(a).Equal(at(b)):
				ties++
			case kind == 1 && second(a) == second(b):
				subSecond[a.s == b.s]++
			}
		}
		if span := at(want[len(want)-1]).Sub(at(want[0])); span > time.Duration(len(want))*time.Second {
			coarse++
		}
		if len(order.bucket) > len(want) {
			t.Fatalf("case %d (kind %d): %d buckets for %d entries", n, kind, len(order.bucket), len(want))
		}
	}
	if ties == 0 || subSecond[true] == 0 || subSecond[false] == 0 || coarse == 0 {
		t.Errorf("ties %d, different times within one second of one stream %d and of two %d, spans of more seconds than entries %d: a case the order can get wrong is untested",
			ties, subSecond[true], subSecond[false], coarse)
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

// BenchmarkMergeByTime times the order of a run's log, as Log, Schedule and
// WriteLog make it, with fresh scratch per order: 16,000 agents starting
// within one hour (the load the live benchmark replays) and 55,000 within 24
// hours (simgen -agents 55000), each on Table 5's site. It reports ns/record;
// B/op is the scratch.
func BenchmarkMergeByTime(b *testing.B) {
	g, err := webgraph.GenerateTopology(webgraph.PaperTopology(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		agents int
		window time.Duration
	}{{16000, time.Hour}, {55000, 24 * time.Hour}} {
		p := PaperParams()
		p.Agents, p.Seed, p.StartWindow = shape.agents, 2, shape.window
		res, err := Run(g, p)
		if err != nil {
			b.Fatal(err)
		}
		streams := make([][]session.Entry, len(res.Streams))
		for i := range res.Streams {
			streams[i] = res.Streams[i].Entries
		}
		records := res.requests()
		b.Run(fmt.Sprintf("agents=%d/window=%v", shape.agents, shape.window), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var order timeOrder
				order.mergeByTime(streams, func(s, j int) {})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
		})
	}
}
