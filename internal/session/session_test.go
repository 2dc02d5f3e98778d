package session

import (
	"strings"
	"testing"
	"time"

	"smartsra/internal/webgraph"
)

var t0 = time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)

// mk builds a session from (page, minute-offset) pairs.
// Pages returns just the page IDs of the session, in order.
func (s Session) Pages() []webgraph.PageID {
	out := make([]webgraph.PageID, len(s.Entries))
	for i, e := range s.Entries {
		out[i] = e.Page
	}
	return out
}

// CapturedByAny reports whether any of the candidate sessions captures r.
func CapturedByAny(candidates []Session, r Session) bool {
	for _, h := range candidates {
		if Captures(h, r) {
			return true
		}
	}
	return false
}

// Subsumes reports whether session a subsumes session b: b's pages occur
// contiguously within a's. Smart-SRA guarantees its output sessions are
// maximal, i.e. no output session subsumes another (unless equal).
func Subsumes(a, b Session) bool {
	return len(a.Entries) >= len(b.Entries) && entryIndexOf(a.Entries, b.Entries) >= 0
}

func mk(user string, pairs ...int) Session {
	if len(pairs)%2 != 0 {
		panic("mk needs page,minute pairs")
	}
	s := Session{User: user}
	for i := 0; i < len(pairs); i += 2 {
		s.Entries = append(s.Entries, Entry{
			Page: webgraph.PageID(pairs[i]),
			Time: t0.Add(time.Duration(pairs[i+1]) * time.Minute),
		})
	}
	return s
}

func TestSessionBasics(t *testing.T) {
	s := mk("u1", 3, 0, 14, 2, 15, 5)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.Pages(); len(got) != 3 || got[0] != 3 || got[2] != 15 {
		t.Errorf("Pages = %v", got)
	}
	if got := s.Duration(); got != 5*time.Minute {
		t.Errorf("Duration = %v", got)
	}
	if got := mk("u1").Duration(); got != 0 {
		t.Errorf("empty Duration = %v", got)
	}
	if got := mk("u1", 7, 0).Duration(); got != 0 {
		t.Errorf("singleton Duration = %v", got)
	}
	if got := s.String(); got != "u1:[3 14 15]" {
		t.Errorf("String = %q", got)
	}
}

func TestClone(t *testing.T) {
	s := mk("u1", 1, 0, 2, 1)
	c := s.Clone()
	c.Entries[0].Page = 99
	if s.Entries[0].Page != 1 {
		t.Error("Clone shares entry storage")
	}
}

func TestRulesValidate(t *testing.T) {
	if err := DefaultRules().Validate(); err != nil {
		t.Fatalf("default rules invalid: %v", err)
	}
	bad := []Rules{
		{TotalDuration: 0, PageStay: time.Minute},
		{TotalDuration: time.Hour, PageStay: 0},
		{TotalDuration: time.Minute, PageStay: time.Hour},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid rules accepted: %+v", i, r)
		}
	}
	if DefaultRules().TotalDuration != 30*time.Minute || DefaultRules().PageStay != 10*time.Minute {
		t.Error("default thresholds are not the paper's 30/10 minutes")
	}
}

func TestSatisfiesTimestampOrdering(t *testing.T) {
	r := DefaultRules()
	cases := []struct {
		name string
		s    Session
		want bool
	}{
		{"empty", mk("u"), true},
		{"singleton", mk("u", 1, 0), true},
		{"increasing small gaps", mk("u", 1, 0, 2, 3, 3, 9), true},
		{"gap exactly 10min", mk("u", 1, 0, 2, 10), true},
		{"gap above 10min", mk("u", 1, 0, 2, 11), false},
		{"equal timestamps", mk("u", 1, 5, 2, 5), false},
		{"decreasing", mk("u", 1, 5, 2, 3), false},
	}
	for _, c := range cases {
		if got := c.s.SatisfiesTimestampOrdering(r); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSatisfiesTopologyAndValid(t *testing.T) {
	g, ids := webgraph.PaperFigure1()
	r := DefaultRules()
	linked := Session{User: "u", Entries: []Entry{
		{ids["P1"], t0}, {ids["P13"], t0.Add(2 * time.Minute)}, {ids["P34"], t0.Add(4 * time.Minute)},
	}}
	if !linked.SatisfiesTopology(g) {
		t.Error("linked session fails topology")
	}
	if !linked.Valid(g, r) {
		t.Error("linked session not Valid")
	}
	broken := Session{User: "u", Entries: []Entry{
		{ids["P20"], t0}, {ids["P13"], t0.Add(time.Minute)},
	}}
	if broken.SatisfiesTopology(g) {
		t.Error("P20->P13 is not an edge but topology rule passed")
	}
	if broken.Valid(g, r) {
		t.Error("broken session reported Valid")
	}
	// Valid also enforces total duration: stretch a linked session past 30m.
	long := Session{User: "u", Entries: []Entry{
		{ids["P1"], t0},
		{ids["P13"], t0.Add(10 * time.Minute)},
		{ids["P49"], t0.Add(20 * time.Minute)},
		{ids["P23"], t0.Add(30*time.Minute + time.Second)},
	}}
	if !long.SatisfiesTopology(g) {
		t.Fatal("test topology wrong")
	}
	if long.WithinTotalDuration(r) {
		t.Error("31-minute session within 30-minute bound")
	}
	if long.Valid(g, r) {
		t.Error("over-long session reported Valid")
	}
}

func TestCapturesPaperExamples(t *testing.T) {
	// The paper's §5.1 examples, verbatim.
	r := mk("u", 1, 0, 3, 1, 5, 2)
	h1 := mk("u", 9, 0, 1, 1, 3, 2, 5, 3, 8, 4)
	h2 := mk("u", 1, 0, 9, 1, 3, 2, 5, 3, 8, 4)
	if !Captures(h1, r) {
		t.Error("R ⊏ [P9,P1,P3,P5,P8] should hold")
	}
	if Captures(h2, r) {
		t.Error("R ⊏ [P1,P9,P3,P5,P8] should NOT hold (P9 interrupts)")
	}
}

func TestCapturesEdgeCases(t *testing.T) {
	empty := mk("u")
	if !Captures(mk("u", 1, 0), empty) {
		t.Error("empty real session should be vacuously captured")
	}
	if Captures(empty, mk("u", 1, 0)) {
		t.Error("empty candidate captured a non-empty session")
	}
	same := mk("u", 4, 0, 5, 1)
	if !Captures(same, same) {
		t.Error("session does not capture itself")
	}
	if Captures(mk("u", 4, 0), mk("u", 4, 0, 5, 1)) {
		t.Error("shorter candidate captured longer real session")
	}
	// Timestamps are irrelevant to capture; only page order matters.
	shifted := mk("u", 4, 100, 5, 200)
	if !Captures(shifted, same) {
		t.Error("capture should ignore timestamps")
	}
}

func TestCapturedByAny(t *testing.T) {
	r := mk("u", 2, 0, 3, 1)
	cands := []Session{mk("u", 9, 0), mk("u", 1, 0, 2, 1, 3, 2)}
	if !CapturedByAny(cands, r) {
		t.Error("not captured by matching candidate")
	}
	if CapturedByAny(cands[:1], r) {
		t.Error("captured by non-matching candidate")
	}
	if CapturedByAny(nil, r) {
		t.Error("captured by empty candidate set")
	}
}

// Captures compares pages in place on the entry slices, so it allocates
// nothing.
func TestCapturesInPlace(t *testing.T) {
	r := mk("u", 2, 0, 3, 1)
	cands := []Session{mk("u", 9, 0), mk("u", 2, 0, 2, 1), mk("u", 1, 0, 2, 1, 3, 2)}
	if n := testing.AllocsPerRun(100, func() { Captures(cands[2], r) }); n != 0 {
		t.Errorf("Captures allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { CapturedByAny(cands, r) }); n != 0 {
		t.Errorf("CapturedByAny allocates %v times per call", n)
	}
}

func TestSubsumesAndMaximalOnly(t *testing.T) {
	a := mk("u", 1, 0, 2, 1, 3, 2)
	b := mk("u", 2, 0, 3, 1)
	c := mk("u", 9, 0)
	if !Subsumes(a, b) || Subsumes(b, a) {
		t.Error("Subsumes wrong on nested pair")
	}
	if Subsumes(a, c) {
		t.Error("Subsumes wrong on unrelated pair")
	}
	got := MaximalOnly([]Session{b, a, c, b})
	if len(got) != 2 {
		t.Fatalf("MaximalOnly kept %d sessions (%v), want 2", len(got), got)
	}
	if got[0].String() != a.String() || got[1].String() != c.String() {
		t.Errorf("MaximalOnly kept %v", got)
	}
	dup := MaximalOnly([]Session{c, c})
	if len(dup) != 1 {
		t.Errorf("duplicate sessions not deduplicated: %v", dup)
	}
	if got := MaximalOnly(nil); len(got) != 0 {
		t.Errorf("MaximalOnly(nil) = %v", got)
	}
}

func TestStringHasUserPrefix(t *testing.T) {
	s := mk("client-42", 5, 0)
	if !strings.HasPrefix(s.String(), "client-42:") {
		t.Errorf("String = %q", s.String())
	}
}
