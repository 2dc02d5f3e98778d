package mining

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
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
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := Mine(nil, bad[0]); err == nil {
		t.Error("Mine accepted invalid config")
	}
}

func TestMineContiguous(t *testing.T) {
	sessions := []session.Session{
		mk(1, 2, 3),
		mk(1, 2, 4),
		mk(1, 2, 3),
		mk(5),
	}
	patterns, err := Mine(sessions, Config{MinSupport: 2})
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

func TestMineSupportCountsSessionOnce(t *testing.T) {
	// The pattern appears twice within one session: support is still 1.
	sessions := []session.Session{mk(1, 2, 1, 2)}
	patterns, err := Mine(sessions, Config{MinSupport: 1})
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
	patterns, err := Mine(sessions, Config{MinSupport: 2, MaxLength: 2})
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
	patterns, err := Mine(sessions, Config{MinSupport: 2})
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

// mineByScan is the level-wise apriori scan Mine replaced, kept as its
// reference: every frequent pattern is extended by every frequent page, and
// each candidate is tested against every session.
func mineByScan(sessions []session.Session, cfg Config) []Pattern {
	seqs := make([][]webgraph.PageID, 0, len(sessions))
	for _, s := range sessions {
		if s.Len() == 0 {
			continue
		}
		seq := make([]webgraph.PageID, s.Len())
		for i, e := range s.Entries {
			seq[i] = e.Page
		}
		seqs = append(seqs, seq)
	}
	counts := make(map[webgraph.PageID]int)
	for _, seq := range seqs {
		seen := make(map[webgraph.PageID]bool, len(seq))
		for _, p := range seq {
			if !seen[p] {
				seen[p] = true
				counts[p]++
			}
		}
	}
	var frequentPages []webgraph.PageID
	var out []Pattern
	for p, c := range counts {
		if c >= cfg.MinSupport {
			frequentPages = append(frequentPages, p)
			out = append(out, Pattern{Pages: []webgraph.PageID{p}, Support: c})
		}
	}
	level := make([][]webgraph.PageID, 0, len(frequentPages))
	for _, p := range out {
		level = append(level, p.Pages)
	}
	for k := 2; len(level) > 0 && (cfg.MaxLength == 0 || k <= cfg.MaxLength); k++ {
		var next [][]webgraph.PageID
		for _, base := range level {
			for _, ext := range frequentPages {
				cand := append(append(make([]webgraph.PageID, 0, len(base)+1), base...), ext)
				support := 0
				for _, seq := range seqs {
					if contains(seq, cand) {
						support++
					}
				}
				if support >= cfg.MinSupport {
					out = append(out, Pattern{Pages: cand, Support: support})
					next = append(next, cand)
				}
			}
		}
		level = next
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if len(a.Pages) != len(b.Pages) {
			return len(a.Pages) < len(b.Pages)
		}
		for x := range a.Pages {
			if a.Pages[x] != b.Pages[x] {
				return a.Pages[x] < b.Pages[x]
			}
		}
		return false
	})
	return out
}

func contains(seq, pattern []webgraph.PageID) bool {
outer:
	for i := 0; i+len(pattern) <= len(seq); i++ {
		for j, p := range pattern {
			if seq[i+j] != p {
				continue outer
			}
		}
		return true
	}
	return false
}

// Property: Mine finds exactly the reference scan's patterns, supports and
// order, with and without a length cap, at min
// support 1–5. Sessions are short walks over a few pages, empty ones
// included, so patterns repeat within and across sessions.
func TestMineMatchesScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, maxLen := range []int{0, 3} {
		for minSup := 1; minSup <= 5; minSup++ {
			cfg := Config{MinSupport: minSup, MaxLength: maxLen}
			t.Run(fmt.Sprintf("contiguous/max=%d/min=%d", maxLen, minSup), func(t *testing.T) {
				for trial := 0; trial < 40; trial++ {
					sessions := make([]session.Session, rng.Intn(25))
					pages := 1 + rng.Intn(6)
					for i := range sessions {
						walk := make([]int, rng.Intn(9))
						for j := range walk {
							walk[j] = 100 + rng.Intn(pages)
						}
						sessions[i] = mk(walk...)
					}
					got, err := Mine(sessions, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if want := mineByScan(sessions, cfg); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d: Mine found %d patterns, the scan %d\n got %v\nwant %v", trial, len(got), len(want), got, want)
					}
				}
			})
		}
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
	patterns, err := Mine(sessions, Config{MinSupport: 1})
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
