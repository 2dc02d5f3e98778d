package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/prep"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// referenceSessions is what a Tail must emit, read off the paper with no code
// of the Tail's: each user's requests sorted by time, split wherever two
// consecutive requests are more than ρ apart, and each burst reconstructed on
// its own. The result is the sessions' text, sorted: a multiset.
func referenceSessions(g *webgraph.Graph, h heuristics.Reconstructor, recs []clf.Record, rho time.Duration) []string {
	byUser := map[string][]session.Entry{}
	for _, r := range recs {
		page, _ := g.PageByURI(r.URI)
		byUser[r.Host] = append(byUser[r.Host], session.Entry{Page: page, Time: r.Time})
	}
	var out []string
	for user, entries := range byUser {
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Time.Before(entries[j].Time) })
		for start, i := 0, 1; i <= len(entries); i++ {
			if i == len(entries) || entries[i].Time.Sub(entries[i-1].Time) > rho {
				for _, s := range heuristics.ReconstructAll(h, []session.Stream{{User: user, Entries: entries[start:i]}}) {
					out = append(out, string(s.AppendText(nil)))
				}
				start = i
			}
		}
	}
	sort.Strings(out)
	return out
}

// batchReference is what a NoHorizon Tail must emit, built with no code of
// the Tail's: the records cleaned, resolved, grouped by user and stable-sorted
// by time (prep.BuildStreams), each user's whole history reconstructed on its
// own (heuristics.ReconstructAll), in user order. Its Stats are the ones the
// Tail must count, malformed lines aside (the caller's reader counts those).
func batchReference(t *testing.T, g *webgraph.Graph, h heuristics.Reconstructor, recs []clf.Record) ([]session.Session, Stats) {
	t.Helper()
	if h == nil {
		h = heuristics.NewSmartSRA(g)
	}
	streams, ps, err := prep.BuildStreams(recs, prep.GraphResolver(g), prep.Options{Filter: clf.StandardCleaning()})
	if err != nil {
		t.Fatal(err)
	}
	sessions := heuristics.ReconstructAll(h, streams)
	return sessions, Stats{Records: ps.Records, Filtered: ps.Filtered, Unresolved: ps.Unresolved, Users: ps.Users, Sessions: len(sessions)}
}

// latenessLog builds a random log of users walking g's links: visits of 1–8
// requests a few minutes apart, separated by quiet spells of 11 minutes to
// two hours, the users starting across six hours, so the log's clock sweeps
// many times. Each record is logged up to lateness behind the newest record
// before it, but every user's own requests stay in time order: reordering a
// user's requests across a ρ gap is a log defect the Tail does not repair
// (see detach). Timestamps are whole seconds, as a CLF line carries them.
func latenessLog(rng *rand.Rand, g *webgraph.Graph, users int, lateness time.Duration) []clf.Record {
	base := time.Date(2006, 1, 2, 6, 0, 0, 0, time.UTC)
	type arrival struct {
		rec clf.Record
		key time.Time
	}
	var log []arrival
	for u := range users {
		host := fmt.Sprintf("10.7.%d.%d", u>>8, u&255)
		at := base.Add(time.Duration(rng.Intn(6*3600)) * time.Second)
		for range 1 + rng.Intn(4) {
			page := g.StartPages()[rng.Intn(len(g.StartPages()))]
			for range 1 + rng.Intn(8) {
				log = append(log, arrival{rec: tailRec(host, g.Label(page), at)})
				if next := g.Succ(page); len(next) > 0 && rng.Intn(5) > 0 {
					page = next[rng.Intn(len(next))]
				} else {
					page = webgraph.PageID(rng.Intn(g.NumPages()))
				}
				at = at.Add(time.Duration(10+rng.Intn(540)) * time.Second)
			}
			at = at.Add(time.Duration(660+rng.Intn(6540)) * time.Second)
		}
	}
	// Arrive at time + a delay below lateness; then hand each user's records,
	// in time order, to that user's arrival slots, so only users interleave
	// out of order. A slot's key is within lateness of its record's time.
	for i := range log {
		log[i].key = log[i].rec.Time.Add(time.Duration(rng.Int63n(int64(lateness))))
	}
	sort.SliceStable(log, func(i, j int) bool { return log[i].key.Before(log[j].key) })
	byUser := map[string][]clf.Record{}
	for _, a := range log {
		byUser[a.rec.Host] = append(byUser[a.rec.Host], a.rec)
	}
	for _, recs := range byUser {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
	}
	out := make([]clf.Record, len(log))
	for i, a := range log {
		out[i] = byUser[a.rec.Host][0]
		byUser[a.rec.Host] = byUser[a.rec.Host][1:]
	}
	return out
}

// TestTailMatchesReference holds every way of feeding a Tail to the naive
// reading of the paper (referenceSessions), over random multi-user logs whose
// records arrive up to just under ρ behind the newest, for heur1–heur4: a Push
// loop, PushBatch at random sizes, Ingest at several chunk sizes and a
// Snapshot→Restore at a random record each emit the reference's multiset,
// and all of them the Push loop's bytes. The log's clock closes users while
// the log is read, so the order is not the reference's; the contents are.
func TestTailMatchesReference(t *testing.T) {
	g := goldenGraph()
	const rho = 10 * time.Minute
	heurs := []heuristics.Reconstructor{
		heuristics.NewTimeTotal(), heuristics.NewTimeGap(), heuristics.NewNavigation(g), heuristics.NewSmartSRA(g),
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := latenessLog(rng, g, 20+rng.Intn(60), rho-time.Second)
		var text strings.Builder
		for _, r := range recs {
			text.WriteString(r.String())
			text.WriteByte('\n')
		}
		for _, h := range heurs {
			label := fmt.Sprintf("seed=%d %s", seed, h.Name())
			build := func(chunk ...int) *Tail {
				cfg := Config{Graph: g, Heuristic: h}
				if len(chunk) > 0 {
					cfg.StreamChunkBytes = chunk[0]
				}
				tl, err := NewTail(cfg, rho)
				if err != nil {
					t.Fatal(err)
				}
				return tl
			}
			ref := referenceSessions(g, h, recs, rho)

			tl := build()
			var want []session.Session
			for _, r := range recs {
				want = append(want, tl.Push(r)...)
			}
			swept := len(want)
			want = append(want, tl.Flush()...)
			if swept == 0 || swept == len(want) {
				t.Fatalf("%s: %d sessions closed while feeding, %d at the end; want both > 0", label, swept, len(want)-swept)
			}
			if d := firstDifference(sessionStrings(want), ref); d != "" {
				t.Fatalf("%s: Push loop emits %d sessions, the reference %d; first difference: %s", label, len(want), len(ref), d)
			}
			wantBytes := renderSessions(t, want)

			check := func(how string, got []session.Session) {
				t.Helper()
				if !bytes.Equal(renderSessions(t, got), wantBytes) {
					t.Errorf("%s: %s differs from the Push loop (first multiset difference: %q)", label, how, firstDifference(sessionStrings(got), ref))
				}
			}
			tl = build()
			var got []session.Session
			for off := 0; off < len(recs); {
				n := min(1+rng.Intn(40), len(recs)-off)
				got = append(got, tl.PushBatch(recs[off:off+n])...)
				off += n
			}
			check("PushBatch at random sizes", append(got, tl.Flush()...))

			for _, chunk := range []int{128, 1000, 64 << 10} {
				tl = build(chunk)
				got = nil
				if _, err := tl.Ingest(strings.NewReader(text.String()), keep(&got), nil); err != nil {
					t.Fatal(err)
				}
				tl.Drain(keep(&got))
				check(fmt.Sprintf("Ingest at %d-byte chunks", chunk), got)
			}

			cut := rng.Intn(len(recs) + 1)
			tl = build()
			got = tl.PushBatch(recs[:cut])
			restored := build()
			if err := restored.Restore(tl.Snapshot()); err != nil {
				t.Fatal(err)
			}
			got = append(got, restored.PushBatch(recs[cut:])...)
			check(fmt.Sprintf("Snapshot→Restore at record %d", cut), append(got, restored.Flush()...))
		}
	}
}

// TestNoHorizonMatchesBatchReference holds a NoHorizon Tail — sessionize's
// batch mode — to batchReference, sessions byte for byte and Stats, for
// heur1–heur4 over random multi-user logs whose records arrive out of order
// and in mixed zones: latenessLog's order, with every 7th time written at
// +05:30, and the same records shuffled outright, since with no horizon a
// user's requests may come in any order. The Tail reads each log through
// Ingest at two chunk sizes and Drains it, and through PushBatch and Flush.
func TestNoHorizonMatchesBatchReference(t *testing.T) {
	g := goldenGraph()
	ist := clf.FixedZone(5*3600 + 1800)
	heurs := []heuristics.Reconstructor{
		heuristics.NewTimeTotal(), heuristics.NewTimeGap(), heuristics.NewNavigation(g), heuristics.NewSmartSRA(g),
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := latenessLog(rng, g, 20+rng.Intn(60), 10*time.Minute)
		for i := 0; i < len(recs); i += 7 {
			recs[i].Time = recs[i].Time.In(ist)
		}
		shuffled := append([]clf.Record(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for order, log := range map[string][]clf.Record{"late": recs, "shuffled": shuffled} {
			var text strings.Builder
			for _, r := range log {
				text.WriteString(r.String())
				text.WriteByte('\n')
			}
			for _, h := range heurs {
				label := fmt.Sprintf("seed=%d %s %s", seed, order, h.Name())
				ref, refStats := batchReference(t, g, h, log)
				want, refText := renderSessions(t, ref), sessionStrings(ref)
				sort.Strings(refText)
				check := func(how string, got []session.Session, st Stats) {
					t.Helper()
					if !bytes.Equal(renderSessions(t, got), want) {
						t.Errorf("%s: %s differs from the reference (first multiset difference: %q)", label, how, firstDifference(sessionStrings(got), refText))
					}
					if st != refStats {
						t.Errorf("%s: %s counts %+v, the reference %+v", label, how, st, refStats)
					}
				}
				for _, chunk := range []int{128, 64 << 10} {
					got, st := batchIngest(t, Config{Graph: g, Heuristic: h, StreamChunkBytes: chunk}, text.String())
					check(fmt.Sprintf("Ingest at %d-byte chunks", chunk), got, st)
				}
				tl, err := NewTail(Config{Graph: g, Heuristic: h}, NoHorizon)
				if err != nil {
					t.Fatal(err)
				}
				got := tl.PushBatch(log)
				check("PushBatch and Flush", append(got, tl.Flush()...), tl.Stats())
			}
		}
	}
}

// firstDifference names the first session of the sorted merge that one
// multiset has more of than the other, or returns "" when a, in any order, is
// sorted b.
func firstDifference(a, sortedB []string) string {
	a = append([]string(nil), a...)
	sort.Strings(a)
	for i := 0; i < len(a) || i < len(sortedB); i++ {
		switch {
		case i == len(a):
			return "missing " + sortedB[i]
		case i == len(sortedB):
			return "extra " + a[i]
		case a[i] != sortedB[i]:
			return fmt.Sprintf("%s vs reference %s", a[i], sortedB[i])
		}
	}
	return ""
}
