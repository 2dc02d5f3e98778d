package core

import (
	"errors"
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

func TestNewTailDefaults(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	tl, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tl.cfg.Heuristic.Name() != "heur4" {
		t.Errorf("default heuristic = %s, want heur4 (Smart-SRA)", tl.cfg.Heuristic.Name())
	}
	if tl.rho != session.DefaultPageStay {
		t.Errorf("default burst gap = %v, want %v", tl.rho, session.DefaultPageStay)
	}
}

// batchIngest is sessionize's batch mode: log read by a NoHorizon Tail's
// Ingest, which must close nothing, then drained.
func batchIngest(t *testing.T, cfg Config, log string) ([]session.Session, Stats) {
	t.Helper()
	tl, err := NewTail(cfg, NoHorizon)
	if err != nil {
		t.Fatal(err)
	}
	var got []session.Session
	if _, err := tl.Ingest(strings.NewReader(log), keep(&got), nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("a NoHorizon Tail closed %d sessions before the end of its input", len(got))
	}
	tl.Drain(keep(&got))
	return got, tl.Stats()
}

// TestProcessLogEndToEnd: batch mode, a NoHorizon Tail, parses (skipping
// the malformed line), cleans, resolves, identifies users and reconstructs,
// and its Stats count each stage.
func TestProcessLogEndToEnd(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	log := strings.Join([]string{
		`10.0.0.1 - - [02/Jan/2006:12:00:00 +0000] "GET /P1.html HTTP/1.1" 200 100`,
		`10.0.0.1 - - [02/Jan/2006:12:02:00 +0000] "GET /P13.html HTTP/1.1" 200 100`,
		`10.0.0.1 - - [02/Jan/2006:12:04:00 +0000] "GET /logo.gif HTTP/1.1" 200 100`,
		`this line is garbage`,
		`10.0.0.1 - - [02/Jan/2006:12:05:00 +0000] "GET /P34.html HTTP/1.1" 200 100`,
		`10.0.0.2 - - [02/Jan/2006:12:00:00 +0000] "GET /P49.html HTTP/1.1" 200 100`,
		`10.0.0.2 - - [02/Jan/2006:12:01:00 +0000] "GET /unknown.html HTTP/1.1" 200 100`,
		`10.0.0.2 - - [02/Jan/2006:12:03:00 +0000] "GET /P23.html HTTP/1.1" 404 100`,
	}, "\n")
	sessions, st := batchIngest(t, Config{Graph: g}, log)
	want := Stats{Records: 7, Malformed: 1, Filtered: 2, Unresolved: 1, Users: 2, Sessions: len(sessions)}
	if st != want || len(sessions) == 0 { // filtered: the .gif and the 404
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	// User 1's requests P1 -> P13 -> P34 are all linked: one session.
	var u1 []session.Session
	for _, s := range sessions {
		if s.User == "10.0.0.1" {
			u1 = append(u1, s)
		}
	}
	if len(u1) != 1 || u1[0].Len() != 3 {
		t.Fatalf("user 10.0.0.1 sessions = %v", u1)
	}
	if got := u1[0].Entries; got[0].Page != ids["P1"] || got[2].Page != ids["P34"] {
		t.Errorf("session = %v", u1[0])
	}
	if !strings.Contains(st.String(), "users=2") {
		t.Errorf("Stats.String = %q", st.String())
	}
}

// TestProcessLogCustomHeuristicAndFilter: batch mode with a heuristic other
// than the default. The standard cleaning drops the failed POST; the
// time-gap heuristic sessionizes the GET.
func TestProcessLogCustomHeuristicAndFilter(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	log := `10.0.0.1 - - [02/Jan/2006:12:00:00 +0000] "POST /P1.html HTTP/1.1" 500 100
10.0.0.1 - - [02/Jan/2006:12:00:05 +0000] "GET /P1.html HTTP/1.1" 200 100`
	if _, st := batchIngest(t, Config{Graph: g, Heuristic: heuristics.NewTimeGap()}, log); st.Filtered != 1 || st.Sessions != 1 {
		t.Errorf("time-gap stats = %+v", st)
	}
}

// TestNoHorizonAgainstSimulatedTraffic: a NoHorizon Tail over a simulated
// log identifies every agent as one user and emits only valid sessions.
func TestNoHorizonAgainstSimulatedTraffic(t *testing.T) {
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 80, AvgOutDegree: 6, StartPageFraction: 0.1,
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	params := simulator.PaperParams()
	params.Agents = 100
	sim, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := NewTail(Config{Graph: g}, NoHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if out := tl.PushBatch(sim.Log(g)); len(out) != 0 {
		t.Fatalf("a NoHorizon Tail closed %d sessions before Flush", len(out))
	}
	sessions := tl.Flush()
	st := tl.Stats()
	if st.Users == 0 || st.Sessions == 0 {
		t.Fatalf("tail produced nothing: %+v", st)
	}
	if st.Users != len(sim.Streams) {
		t.Errorf("users = %d, want %d", st.Users, len(sim.Streams))
	}
	rules := session.DefaultRules()
	for _, s := range sessions {
		if !s.Valid(g, rules) {
			t.Fatalf("session invalid: %v", s)
		}
	}
}

// TestIngestReadError: a read error ends Ingest with that error.
func TestIngestReadError(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	tl, err := NewTail(Config{Graph: g}, NoHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Ingest(failingReader{}, nil, nil); err == nil {
		t.Error("read error not propagated")
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("boom") }

// TestNoHorizonExpiresNothing: a NoHorizon Tail's users never age out —
// not on a gap, not on the log's clock, not on Expire — so each user's
// history, out of order and across days, is one stream at Flush.
func TestNoHorizonExpiresNothing(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	tl, err := NewTail(Config{Graph: g, Heuristic: heuristics.NewNavigation(g)}, NoHorizon)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	recs := []clf.Record{
		tailRec("a", "/P13.html", t0.Add(48*time.Hour)),
		tailRec("b", "/P49.html", t0.Add(24*time.Hour)),
		tailRec("a", "/P1.html", t0),
	}
	if out := tl.PushBatch(recs); len(out) != 0 {
		t.Fatalf("pushes closed %v", out)
	}
	if out := tl.Expire(t0.Add(1000 * 24 * time.Hour)); len(out) != 0 {
		t.Fatalf("Expire closed %v", out)
	}
	if len(tl.wheel) != 0 {
		t.Errorf("the expiry wheel holds %d buckets", len(tl.wheel))
	}
	// The navigation heuristic joins linked pages across any gap.
	if got := strings.Join(sessionStrings(tl.Flush()), " "); got != "a:[0 1] b:[5]" {
		t.Errorf("Flush gave %s, want a's two linked pages, two days apart, in one session, then b", got)
	}
}
