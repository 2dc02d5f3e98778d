package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

func tailRec(host, uri string, at time.Time) clf.Record {
	return clf.Record{
		Host: host, Ident: "-", AuthUser: "-", Time: at,
		Method: "GET", URI: uri, Protocol: "HTTP/1.1", Status: 200, Bytes: 1,
	}
}

func TestTailValidation(t *testing.T) {
	if _, err := NewTail(Config{}, 0); err == nil {
		t.Error("nil graph accepted")
	}
	g, _ := webgraph.PaperFigure1()
	if _, err := NewTail(Config{Graph: g}, -time.Second); err == nil {
		t.Error("negative gap accepted")
	}
}

func TestTailEmitsOnGapAndFlush(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	tl, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	if got := tl.Push(tailRec("u", "/P1.html", t0)); len(got) != 0 {
		t.Errorf("first push emitted %v", got)
	}
	if got := tl.Push(tailRec("u", "/P13.html", t0.Add(2*time.Minute))); len(got) != 0 {
		t.Errorf("in-burst push emitted %v", got)
	}
	// 11-minute gap: the previous burst closes and comes back as a session.
	got := tl.Push(tailRec("u", "/P1.html", t0.Add(13*time.Minute)))
	if len(got) != 1 || got[0].Len() != 2 {
		t.Fatalf("gap push emitted %v", got)
	}
	if got[0].User != "u" {
		t.Errorf("user = %q", got[0].User)
	}
	rest := tl.Flush()
	if len(rest) != 1 || rest[0].Len() != 1 {
		t.Fatalf("flush emitted %v", rest)
	}
	// Flush leaves the Tail reusable.
	if got := tl.Push(tailRec("u", "/P1.html", t0.Add(time.Hour))); len(got) != 0 {
		t.Errorf("post-flush push emitted %v", got)
	}
	st := tl.Stats()
	// Users counts activations, not distinct users: Flush evicted "u", so
	// the post-flush push re-activated it (memory stays bounded by the
	// active set instead of users-ever-seen).
	if st.Records != 4 || st.Users != 2 || st.Sessions != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTailExpire(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	tl, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	tl.Push(tailRec("a", "/P1.html", t0))
	tl.Push(tailRec("b", "/P49.html", t0.Add(8*time.Minute)))
	// At t0+11m only user a is stale.
	got := tl.Expire(t0.Add(11 * time.Minute))
	if len(got) != 1 || got[0].User != "a" {
		t.Fatalf("expire emitted %v", got)
	}
	if got := tl.Expire(t0.Add(11 * time.Minute)); len(got) != 0 {
		t.Errorf("second expire emitted %v", got)
	}
	if got := tl.Flush(); len(got) != 1 || got[0].User != "b" {
		t.Errorf("flush emitted %v", got)
	}
}

func TestTailCountsFilteredAndUnresolved(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	tl, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	tl.Push(tailRec("u", "/logo.gif", t0))
	tl.Push(tailRec("u", "/unknown.html", t0))
	st := tl.Stats()
	if st.Filtered != 1 || st.Unresolved != 1 || st.Users != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestTailSortsOutOfOrderWithinBurst: a record that arrives behind its user's
// newest joins the open burst in time order. The lateness cases pin the log's
// clock's contract: a record at most ρ behind the newest in the log finds its
// user's burst open and joins it; one more than ρ behind, whose user the
// clock has already closed, opens a new burst.
func TestTailSortsOutOfOrderWithinBurst(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name string
		recs []clf.Record
		want string // every session, closed while pushing and then flushed
	}{
		{"within burst", []clf.Record{
			tailRec("u", "/P13.html", t0.Add(time.Minute)),
			tailRec("u", "/P1.html", t0), // arrives late
		}, "u:[0 1]"},
		{"lateness ρ", []clf.Record{
			tailRec("a", "/P1.html", t0),
			tailRec("b", "/P1.html", t0.Add(20*time.Minute)),  // a is 2ρ quiet, not more
			tailRec("a", "/P13.html", t0.Add(10*time.Minute)), // ρ behind b
		}, "a:[0 1] b:[0]"},
		{"lateness beyond ρ", []clf.Record{
			tailRec("a", "/P1.html", t0),
			tailRec("b", "/P1.html", t0.Add(21*time.Minute)), // closes a
			tailRec("a", "/P13.html", t0.Add(9*time.Minute)), // 12 minutes behind b
		}, "a:[0] a:[1] b:[0]"},
	} {
		tl, err := NewTail(Config{Graph: g, Heuristic: heuristics.NewTimeGap()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []session.Session
		for _, r := range tc.recs {
			got = append(got, tl.Push(r)...)
		}
		got = append(got, tl.Flush()...)
		if s := strings.Join(sessionStrings(got), " "); s != tc.want {
			t.Errorf("%s: sessions %q, want %q", tc.name, s, tc.want)
		}
	}
}

func mustPage(t *testing.T, g *webgraph.Graph, uri string) webgraph.PageID {
	t.Helper()
	p, ok := g.PageByURI(uri)
	if !ok {
		t.Fatalf("no page %q", uri)
	}
	return p
}

// Streamed reconstruction must equal batch reconstruction for the time-gap
// heuristic, whose sessions never span a >ρ gap, and on this simulated log for
// Smart-SRA, whose sessions don't either: no user here has a short visit whose
// pages reappear in a session of another burst (ROADMAP item 4).
func TestTailEquivalentToBatchForGapBoundedHeuristics(t *testing.T) {
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 80, AvgOutDegree: 6, StartPageFraction: 0.1,
	}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	params := simulator.PaperParams()
	params.Agents = 120
	sim, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	records := sim.Log(g)

	for _, build := range []func() heuristics.Reconstructor{
		func() heuristics.Reconstructor { return heuristics.NewTimeGap() },
		func() heuristics.Reconstructor { return heuristics.NewSmartSRA(g) },
	} {
		h := build()
		batch, _ := batchReference(t, g, h, records)
		tl, err := NewTail(Config{Graph: g, Heuristic: h}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []session.Session
		for _, rec := range records {
			streamed = append(streamed, tl.Push(rec)...)
		}
		streamed = append(streamed, tl.Flush()...)

		if len(streamed) != len(batch) {
			t.Fatalf("%s: streamed %d sessions, batch %d",
				h.Name(), len(streamed), len(batch))
		}
		// Compare as per-user multisets (emission order differs).
		count := make(map[string]int)
		for _, s := range batch {
			count[string(s.AppendText(nil))]++
		}
		for _, s := range streamed {
			count[string(s.AppendText(nil))]--
		}
		for k, c := range count {
			if c != 0 {
				t.Fatalf("%s: session multiset differs at %q (%+d)", h.Name(), k, c)
			}
		}
	}
}

// TestSlotKeepsZone: a time packed into a burst slot and rebuilt is == to the
// one pushed when its zone is UTC, time.Local (on either side of a DST change,
// where the local zone has one) or an unnamed fixed offset as clf parses it;
// a named fixed zone comes back as the same instant at the same offset. CI
// runs it under TZ=Asia/Kolkata too, where Local is +05:30.
func TestSlotKeepsZone(t *testing.T) {
	base := time.Date(2024, 3, 10, 5, 30, 0, 123, time.UTC)
	same := map[string]time.Time{
		"UTC":           base,
		"Local":         base.Local(),
		"Local, summer": base.AddDate(0, 4, 0).Local(),
		"+05:30":        base.In(clf.FixedZone(5*3600 + 1800)),
		"-07:00":        base.In(clf.FixedZone(-7 * 3600)),
		"+00:00":        base.In(clf.FixedZone(0)),
		"pre-1970":      time.Date(1901, 1, 1, 0, 0, 0, 999999999, clf.FixedZone(-3*3600)),
	}
	for name, at := range same {
		if got := appendEntries(nil, []slot{slotOf(7, at)})[0]; got != (session.Entry{Page: 7, Time: at}) {
			t.Errorf("%s: %v (%v) came back as %v (%v)", name, at, at.Location(), got.Time, got.Time.Location())
		}
	}
	named := base.In(time.FixedZone("EST", -5*3600))
	got := appendEntries(nil, []slot{slotOf(7, named)})[0].Time
	if _, off := got.Zone(); !got.Equal(named) || off != -5*3600 {
		t.Errorf("EST: %v came back as %v", named, got)
	}
}
