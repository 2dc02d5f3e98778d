package mining

import (
	"strings"
	"testing"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

var t0 = time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)

func mk(pages ...int) session.Session {
	s := session.Session{User: "u"}
	for i, p := range pages {
		s.Entries = append(s.Entries, session.Entry{
			Page: webgraph.PageID(p),
			Time: t0.Add(time.Duration(i) * time.Minute),
		})
	}
	return s
}

func find(patterns []Pattern, pages ...int) (Pattern, bool) {
	for _, p := range patterns {
		if len(p.Pages) != len(pages) {
			continue
		}
		match := true
		for i := range pages {
			if p.Pages[i] != webgraph.PageID(pages[i]) {
				match = false
				break
			}
		}
		if match {
			return p, true
		}
	}
	return Pattern{}, false
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{MinSupport: 0},
		{MinSupport: 2, MaxLength: -1},
		{MinSupport: 2, Containment: Containment(7)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := Mine(nil, bad[0]); err == nil {
		t.Error("Mine accepted invalid config")
	}
	if Contiguous.String() != "contiguous" || Subsequence.String() != "subsequence" ||
		Containment(9).String() == "" {
		t.Error("Containment.String wrong")
	}
}

func TestMineContiguous(t *testing.T) {
	sessions := []session.Session{
		mk(1, 2, 3),
		mk(1, 2, 4),
		mk(1, 2, 3),
		mk(5),
	}
	patterns, err := Mine(sessions, Config{MinSupport: 2, Containment: Contiguous})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := find(patterns, 1, 2); !ok || p.Support != 3 {
		t.Errorf("[1 2] = %+v, %v; want support 3", p, ok)
	}
	if p, ok := find(patterns, 1, 2, 3); !ok || p.Support != 2 {
		t.Errorf("[1 2 3] = %+v, %v; want support 2", p, ok)
	}
	if _, ok := find(patterns, 1, 3); ok {
		t.Error("[1 3] found under contiguous containment")
	}
	if _, ok := find(patterns, 5); ok {
		t.Error("[5] has support 1, below min support")
	}
}

func TestMineSubsequence(t *testing.T) {
	sessions := []session.Session{
		mk(1, 9, 3),
		mk(1, 3),
	}
	patterns, err := Mine(sessions, Config{MinSupport: 2, Containment: Subsequence})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := find(patterns, 1, 3); !ok || p.Support != 2 {
		t.Errorf("[1 3] = %+v, %v; want support 2 under subsequence", p, ok)
	}
	contig, err := Mine(sessions, Config{MinSupport: 2, Containment: Contiguous})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := find(contig, 1, 3); ok {
		t.Error("[1 3] found under contiguous containment")
	}
}

func TestMineSupportCountsSessionOnce(t *testing.T) {
	// The pattern appears twice within one session: support is still 1.
	sessions := []session.Session{mk(1, 2, 1, 2)}
	patterns, err := Mine(sessions, Config{MinSupport: 1, Containment: Contiguous})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := find(patterns, 1, 2); !ok || p.Support != 1 {
		t.Errorf("[1 2] = %+v; repeated in-session occurrences must count once", p)
	}
	if p, ok := find(patterns, 1); !ok || p.Support != 1 {
		t.Errorf("[1] = %+v", p)
	}
}

func TestMineMaxLength(t *testing.T) {
	sessions := []session.Session{mk(1, 2, 3, 4), mk(1, 2, 3, 4)}
	patterns, err := Mine(sessions, Config{MinSupport: 2, MaxLength: 2, Containment: Contiguous})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range patterns {
		if len(p.Pages) > 2 {
			t.Errorf("pattern %v exceeds max length", p)
		}
	}
	if _, ok := find(patterns, 3, 4); !ok {
		t.Error("length-2 pattern missing")
	}
}

func TestMineSortOrder(t *testing.T) {
	sessions := []session.Session{
		mk(1, 2), mk(1, 2), mk(1, 2),
		mk(3), mk(3),
	}
	patterns, err := Mine(sessions, Config{MinSupport: 2, Containment: Contiguous})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(patterns); i++ {
		if patterns[i].Support > patterns[i-1].Support {
			t.Fatalf("patterns not sorted by support: %v", patterns)
		}
	}
	if len(patterns) == 0 || patterns[0].Support != 3 {
		t.Errorf("top pattern = %v", patterns)
	}
}

func TestMineEmptyInput(t *testing.T) {
	patterns, err := Mine(nil, Config{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 0 {
		t.Errorf("patterns from empty input: %v", patterns)
	}
}

func TestPatternString(t *testing.T) {
	p := Pattern{Pages: []webgraph.PageID{3, 14}, Support: 42}
	if p.String() != "[3 14] x42" {
		t.Errorf("String = %q", p.String())
	}
}

func TestRules(t *testing.T) {
	sessions := []session.Session{
		mk(1, 2, 3),
		mk(1, 2, 3),
		mk(1, 2, 4),
		mk(1, 2, 3),
	}
	patterns, err := Mine(sessions, Config{MinSupport: 1, Containment: Contiguous})
	if err != nil {
		t.Fatal(err)
	}
	rules := Rules(patterns, 0.5)
	// [1 2] => 3 has confidence 3/4; [1 2] => 4 has 1/4 (filtered).
	var found bool
	for _, r := range rules {
		if len(r.Antecedent) == 2 && r.Antecedent[0] == 1 && r.Antecedent[1] == 2 &&
			r.Consequent == 3 {
			found = true
			if r.Confidence != 0.75 || r.Support != 3 {
				t.Errorf("rule = %+v", r)
			}
		}
		if r.Consequent == 4 && len(r.Antecedent) == 2 {
			t.Errorf("low-confidence rule survived: %v", r)
		}
		if r.Confidence < 0.5 {
			t.Errorf("rule below threshold: %v", r)
		}
	}
	if !found {
		t.Errorf("[1 2] => 3 missing from %v", rules)
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence {
			t.Error("rules not sorted by confidence")
		}
	}
	r := rules[0]
	if !strings.Contains(r.String(), "=>") {
		t.Errorf("Rule.String = %q", r.String())
	}
}

func TestRulesEmpty(t *testing.T) {
	if got := Rules(nil, 0.5); len(got) != 0 {
		t.Errorf("Rules(nil) = %v", got)
	}
	// Single pages yield no rules.
	patterns := []Pattern{{Pages: []webgraph.PageID{1}, Support: 5}}
	if got := Rules(patterns, 0); len(got) != 0 {
		t.Errorf("rules from singletons: %v", got)
	}
}
