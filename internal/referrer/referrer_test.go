package referrer

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

var t0 = time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)

func rec(host, uri, referer string, minute int) clf.Record {
	return clf.Record{
		Host: host, Ident: "-", AuthUser: "-",
		Time:   t0.Add(time.Duration(minute) * time.Minute),
		Method: "GET", URI: uri, Protocol: "HTTP/1.1", Status: 200, Bytes: 1,
		Referer: referer, UserAgent: "test",
	}
}

func TestReconstructChainsOnReferer(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	// Two interleaved sessions of one user: [P1, P13, P34] and [P1, P20],
	// the paper's §4 LPP example. With referrers both are recoverable even
	// though P20's request arrives after P34's.
	records := []clf.Record{
		rec("u", "/P1.html", "-", 0),
		rec("u", "/P13.html", "/P1.html", 2),
		rec("u", "/P34.html", "/P13.html", 4),
		rec("u", "/P20.html", "/P1.html", 6),
	}
	r := New(g)
	got, err := r.Reconstruct(records)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("sessions = %v", got)
	}
	// [P1,P13,P34] holds P1 interior when P20 arrives, so P20's referer
	// matches no session end; the chain re-opens at the referer, recovering
	// the ground-truth [P1, P20] exactly.
	want := [][]webgraph.PageID{
		{ids["P1"], ids["P13"], ids["P34"]},
		{ids["P1"], ids["P20"]},
	}
	for i, w := range want {
		entries := got[i].Entries
		if len(entries) != len(w) {
			t.Fatalf("session %d = %v, want %v", i, got[i], w)
		}
		for j := range w {
			if entries[j].Page != w[j] {
				t.Fatalf("session %d = %v, want %v", i, got[i], w)
			}
		}
	}
}

func TestReconstructPrefersMostRecentlyExtended(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	// Two sessions both ending at P13 (via different starts is impossible
	// on Figure 1, so use the same page twice in one stream): requests
	// P1, P13, then P1 again? The cache model would prevent that in
	// simulated logs, but raw combined logs can contain it. The second P49
	// chains to the most recently extended P13.
	records := []clf.Record{
		rec("u", "/P1.html", "-", 0),
		rec("u", "/P13.html", "/P1.html", 1),
		rec("u", "/P1.html", "-", 2),
		rec("u", "/P13.html", "/P1.html", 3),
		rec("u", "/P49.html", "/P13.html", 4),
	}
	got, err := New(g).Reconstruct(records)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("sessions = %v", got)
	}
	// The second session (extended last) should have received P49.
	var withP49 *session.Session
	for i := range got {
		entries := got[i].Entries
		if entries[len(entries)-1].Page == ids["P49"] {
			withP49 = &got[i]
		}
	}
	if withP49 == nil || withP49.Len() != 3 {
		t.Fatalf("P49 chained wrong: %v", got)
	}
	if withP49.Entries[0].Time != t0.Add(2*time.Minute) {
		t.Errorf("P49 attached to the older session: %v", got)
	}
}

func TestReconstructRespectsTimeRules(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	// Referer matches but the gap exceeds ρ: a new session starts.
	records := []clf.Record{
		rec("u", "/P1.html", "-", 0),
		rec("u", "/P13.html", "/P1.html", 11),
	}
	got, err := New(g).Reconstruct(records)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("ρ rule ignored: %v", got)
	}
	// δ rule: chain of 9-minute steps must break at 30 minutes.
	var chain []clf.Record
	pages := []string{"P1", "P13", "P49", "P23"}
	for i, p := range pages {
		ref := "-"
		if i > 0 {
			ref = "/" + pages[i-1] + ".html"
		}
		chain = append(chain, rec("u", "/"+p+".html", ref, i*9))
	}
	// 27 minutes total: one session. Append one more 9-minute step via P23's
	// (nonexistent) successor — instead rebuild with 5 pages using P1 chain
	// again is impossible on Figure 1; check duration bound directly.
	got2, err := New(g).Reconstruct(chain)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got2 {
		if s.Duration() > session.DefaultTotalDuration {
			t.Errorf("δ rule ignored: %v", s)
		}
	}
}

func TestReconstructSeparatesUsers(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	records := []clf.Record{
		rec("a", "/P1.html", "-", 0),
		rec("b", "/P13.html", "/P1.html", 1), // b's referer can't reach a's session
	}
	got, err := New(g).Reconstruct(records)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("sessions = %v", got)
	}
}

func TestReconstructIgnoresUnresolvable(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	records := []clf.Record{
		rec("u", "/external.html", "-", 0),                   // unknown page: dropped
		rec("u", "/P1.html", "http://elsewhere.example/", 1), // external referer: new session
		rec("u", "/P13.html", "/P1.html", 2),                 // chains
	}
	got, err := New(g).Reconstruct(records)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Len() != 2 {
		t.Errorf("sessions = %v", got)
	}
}

func TestReconstructValidation(t *testing.T) {
	if _, err := (Reconstructor{}).Reconstruct(nil); err == nil {
		t.Error("nil graph accepted")
	}
	g, _ := webgraph.PaperFigure1()
	bad := New(g)
	bad.Rules = session.Rules{TotalDuration: time.Minute, PageStay: time.Hour}
	if _, err := bad.Reconstruct(nil); err == nil {
		t.Error("invalid rules accepted")
	}
	if !strings.Contains(New(g).Describe(), "upper bound") {
		t.Errorf("Describe = %q", New(g).Describe())
	}
	if New(g).Name() != "heurR" {
		t.Errorf("Name = %q", New(g).Name())
	}
}

// The chain's output always satisfies the timestamp-ordering rule on
// simulated traffic. (The upper-bound comparison against Smart-SRA lives in
// internal/eval, which owns the scoring.)
func TestReconstructSimulatedTrafficOrdered(t *testing.T) {
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 100, AvgOutDegree: 8, StartPageFraction: 0.08,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	params := simulator.PaperParams()
	params.Agents = 300
	res, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(g).Reconstruct(res.Log(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) == 0 {
		t.Fatal("no sessions from simulated combined log")
	}
	for _, s := range chain {
		if !s.SatisfiesTimestampOrdering(session.DefaultRules()) {
			t.Fatalf("chain session violates ordering: %v", s)
		}
	}
}
