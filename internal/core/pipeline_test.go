package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// Heuristic returns the reconstructor the pipeline uses.
func (p *Pipeline) Heuristic() heuristics.Reconstructor { return p.cfg.Heuristic }

func TestNewPipelineRequiresGraph(t *testing.T) {
	if _, err := NewPipeline(Config{}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestNewPipelineDefaults(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	p, err := NewPipeline(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if p.Heuristic().Name() != "heur4" {
		t.Errorf("default heuristic = %s, want heur4 (Smart-SRA)", p.Heuristic().Name())
	}
}

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
	p, err := NewPipeline(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ProcessLog(nil, strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Records != 7 || st.Malformed != 1 {
		t.Errorf("records/malformed = %d/%d, want 7/1", st.Records, st.Malformed)
	}
	if st.Filtered != 2 { // the .gif and the 404
		t.Errorf("filtered = %d, want 2", st.Filtered)
	}
	if st.Unresolved != 1 {
		t.Errorf("unresolved = %d, want 1", st.Unresolved)
	}
	if st.Users != 2 {
		t.Errorf("users = %d, want 2", st.Users)
	}
	if st.Sessions != len(res.Sessions) || st.Sessions == 0 {
		t.Errorf("sessions stat %d vs %d actual", st.Sessions, len(res.Sessions))
	}
	// User 1's requests P1 -> P13 -> P34 are all linked: one session.
	var u1 []session.Session
	for _, s := range res.Sessions {
		if s.User == "10.0.0.1" {
			u1 = append(u1, s)
		}
	}
	if len(u1) != 1 || u1[0].Len() != 3 {
		t.Errorf("user 10.0.0.1 sessions = %v", u1)
	}
	if got := u1[0].Entries; got[0].Page != ids["P1"] || got[2].Page != ids["P34"] {
		t.Errorf("session = %v", u1[0])
	}
	if !strings.Contains(st.String(), "users=2") {
		t.Errorf("Stats.String = %q", st.String())
	}
}

func TestProcessLogCustomHeuristicAndFilter(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	p, err := NewPipeline(Config{
		Graph:     g,
		Heuristic: heuristics.NewTimeGap(),
	})
	if err != nil {
		t.Fatal(err)
	}
	log := `10.0.0.1 - - [02/Jan/2006:12:00:00 +0000] "POST /P1.html HTTP/1.1" 500 100
10.0.0.1 - - [02/Jan/2006:12:00:05 +0000] "GET /P1.html HTTP/1.1" 200 100`
	res, err := p.ProcessLog(nil, strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	// The standard cleaning drops the failed POST; the TimeGap heuristic
	// sessionizes the GET.
	if res.Stats.Filtered != 1 || res.Stats.Sessions != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestProcessRecordsAgainstSimulatedTraffic(t *testing.T) {
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
	p, err := NewPipeline(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ProcessRecords(sim.Log(g))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Users == 0 || res.Stats.Sessions == 0 {
		t.Fatalf("pipeline produced nothing: %+v", res.Stats)
	}
	if res.Stats.Users != len(sim.Streams) {
		t.Errorf("users = %d, want %d", res.Stats.Users, len(sim.Streams))
	}
	rules := session.DefaultRules()
	for _, s := range res.Sessions {
		if !s.Valid(g, rules) {
			t.Fatalf("pipeline session invalid: %v", s)
		}
	}
}

func TestProcessLogReadError(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	p, err := NewPipeline(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProcessLog(nil, failingReader{}); err == nil {
		t.Error("read error not propagated")
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("boom") }
