package heuristics

// This file replays the paper's worked examples (Tables 1-4, Figure 1)
// verbatim against the four heuristics, so any drift from the published
// algorithm semantics fails loudly.

import (
	"testing"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

var t0 = time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)

// figStream builds a request stream of (page name, minute offset) pairs over
// the Figure 1 topology.
func figStream(ids map[string]webgraph.PageID, pairs ...interface{}) session.Stream {
	st := session.Stream{User: "agent"}
	for i := 0; i < len(pairs); i += 2 {
		st.Entries = append(st.Entries, session.Entry{
			Page: ids[pairs[i].(string)],
			Time: t0.Add(time.Duration(pairs[i+1].(int)) * time.Minute),
		})
	}
	return st
}

// names converts sessions back to page-name sequences for comparison.
func names(ids map[string]webgraph.PageID, sessions []session.Session) [][]string {
	rev := make(map[webgraph.PageID]string, len(ids))
	for n, id := range ids {
		rev[id] = n
	}
	var out [][]string
	for _, s := range sessions {
		var seq []string
		for _, e := range s.Entries {
			seq = append(seq, rev[e.Page])
		}
		out = append(out, seq)
	}
	return out
}

func eqSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsSeq(set [][]string, want []string) bool {
	for _, s := range set {
		if eqSeq(s, want) {
			return true
		}
	}
	return false
}

// table1 is the request sequence of Table 1: P1@0, P20@6, P13@15, P49@29,
// P34@32, P23@47 (minutes).
func table1(ids map[string]webgraph.PageID) session.Stream {
	return figStream(ids,
		"P1", 0, "P20", 6, "P13", 15, "P49", 29, "P34", 32, "P23", 47)
}

func TestPaperTable1_TimeTotal(t *testing.T) {
	_, ids := webgraph.PaperFigure1()
	got := names(ids, reconstruct(NewTimeTotal(), table1(ids)))
	want := [][]string{{"P1", "P20", "P13", "P49"}, {"P34", "P23"}}
	if len(got) != 2 || !eqSeq(got[0], want[0]) || !eqSeq(got[1], want[1]) {
		t.Errorf("heur1(Table 1) = %v, want %v", got, want)
	}
}

func TestPaperTable1_TimeGap(t *testing.T) {
	_, ids := webgraph.PaperFigure1()
	got := names(ids, reconstruct(NewTimeGap(), table1(ids)))
	want := [][]string{{"P1", "P20", "P13"}, {"P49", "P34"}, {"P23"}}
	if len(got) != 3 {
		t.Fatalf("heur2(Table 1) = %v, want %v", got, want)
	}
	for i := range want {
		if !eqSeq(got[i], want[i]) {
			t.Errorf("heur2 session %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPaperTable2_Navigation(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	got := names(ids, reconstruct(NewNavigation(g), table1(ids)))
	// Table 2's final session, backward movements included.
	want := []string{"P1", "P20", "P1", "P13", "P49", "P13", "P34", "P23"}
	if len(got) != 1 || !eqSeq(got[0], want) {
		t.Errorf("heur3(Table 1) = %v, want [%v]", got, want)
	}
}

func TestPaperTable2_NavigationTimesMonotonic(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	sessions := reconstruct(NewNavigation(g), table1(ids))
	for _, s := range sessions {
		for i := 1; i < len(s.Entries); i++ {
			if s.Entries[i].Time.Before(s.Entries[i-1].Time) {
				t.Fatalf("inserted timestamps not monotonic at %d: %v", i, s.Entries)
			}
		}
	}
}

// table3 is the request sequence of Table 3 (the Phase-1 output the paper
// feeds to Phase 2): P1@0, P20@6, P13@9, P49@12, P34@14, P23@15.
func table3(ids map[string]webgraph.PageID) session.Stream {
	return figStream(ids,
		"P1", 0, "P20", 6, "P13", 9, "P49", 12, "P34", 14, "P23", 15)
}

func TestPaperTable4_SmartSRA(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	got := names(ids, reconstruct(NewSmartSRA(g), table3(ids)))
	want := [][]string{
		{"P1", "P13", "P34", "P23"},
		{"P1", "P13", "P49", "P23"},
		{"P1", "P20", "P23"},
	}
	if len(got) != 3 {
		t.Fatalf("Smart-SRA produced %d sessions (%v), want 3", len(got), got)
	}
	for _, w := range want {
		if !containsSeq(got, w) {
			t.Errorf("Smart-SRA missing maximal session %v; got %v", w, got)
		}
	}
}

func TestPaperTable4_SmartSRAOutputsValid(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	h := NewSmartSRA(g)
	for _, s := range reconstruct(h, table3(ids)) {
		if !s.Valid(g, h.Rules) {
			t.Errorf("session %v violates the session rules", s)
		}
	}
}

// The paper's behavior-1 walkthrough (Figure 3): while in session [P1, P20]
// the user jumps to start page P49 and then P23; the real sessions are
// [P1,P20] and [P49,P23]. Smart-SRA on the merged log stream must recover
// both, because P49 has no referrer among the earlier pages.
func TestPaperFigure3_SmartSRASplitsOnNewStartPage(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	stream := figStream(ids, "P1", 0, "P20", 2, "P49", 4, "P23", 6)
	got := names(ids, reconstruct(NewSmartSRA(g), stream))
	if !containsSeq(got, []string{"P49", "P23"}) {
		t.Errorf("Smart-SRA did not split out [P49 P23]: %v", got)
	}
	if !containsSeq(got, []string{"P1", "P20", "P23"}) {
		// P20 links to P23, so the maximal first session includes P23.
		t.Errorf("Smart-SRA did not keep [P1 P20 P23]: %v", got)
	}
	for _, s := range got {
		if containsSeq([][]string{s}, []string{"P20", "P49"}) {
			t.Errorf("unlinked pair P20->P49 ended up adjacent: %v", got)
		}
	}
}
