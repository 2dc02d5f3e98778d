// Package mining implements the pattern-discovery stage of web usage mining
// that session reconstruction feeds (the paper, §1: "discovering useful
// patterns from these sessions by using pattern discovery techniques like
// apriori"). It provides apriori-style sequential pattern mining over page
// sessions: frequent navigation paths and the association rules they imply.
//
// Containment is contiguous, as the paper scores capture (§5.1): a session
// supports a pattern only when the pattern occurs in it as an uninterrupted
// run — a navigation path.
package mining

import (
	"fmt"
	"sort"
	"strings"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Pattern is a frequent page sequence with its support.
type Pattern struct {
	// Pages is the page sequence.
	Pages []webgraph.PageID
	// Support is the number of sessions containing the pattern.
	Support int
}

// String renders the pattern compactly, e.g. "[3 14 15] x42".
func (p Pattern) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, pg := range p.Pages {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", pg)
	}
	fmt.Fprintf(&sb, "] x%d", p.Support)
	return sb.String()
}

// Config parameterizes Mine.
type Config struct {
	// MinSupport is the minimum number of supporting sessions for a pattern
	// to be frequent. Must be at least 1.
	MinSupport int
	// MaxLength caps pattern length; 0 means unlimited.
	MaxLength int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.MinSupport < 1 {
		return fmt.Errorf("mining: min support %d below 1", c.MinSupport)
	}
	if c.MaxLength < 0 {
		return fmt.Errorf("mining: negative max length %d", c.MaxLength)
	}
	return nil
}

// Mine returns all frequent patterns in the sessions under cfg, grown
// apriori-style one page at a time: only a frequent pattern is extended, and
// each of its frequent one-page extensions is a pattern of its own. Support
// is counted by projection: every frequent pattern keeps where it ends in
// each session that supports it — every occurrence — and one pass over those
// ends counts all of its extensions at once (the page right after an
// occurrence), so no candidate is tested against a session that cannot hold
// it. Patterns are returned sorted by
// descending support, then by ascending length, then lexicographically — a
// stable, report-friendly order.
func Mine(sessions []session.Session, cfg Config) ([]Pattern, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := miner{cfg: cfg}
	dense := make(map[webgraph.PageID]int32)
	// The empty pattern ends before every position a pattern can start at.
	var root []end
	for _, s := range sessions {
		if s.Len() == 0 {
			continue
		}
		seq := make([]int32, s.Len())
		for i, e := range s.Entries {
			d, ok := dense[e.Page]
			if !ok {
				d = int32(len(m.pages))
				dense[e.Page] = d
				m.pages = append(m.pages, e.Page)
				m.count = append(m.count, 0)
				m.seen = append(m.seen, 0)
				m.slot = append(m.slot, -1)
			}
			seq[i] = d
		}
		n := int32(len(m.seqs))
		m.seqs = append(m.seqs, seq)
		for e := -1; e < len(seq)-1; e++ {
			root = append(root, end{n, int32(e)})
		}
	}
	m.extend(nil, root)

	out := m.out
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
	return out, nil
}

// end is where a pattern ends in one session: the index of its last page in
// seqs[seq] (-1 for the empty pattern).
type end struct{ seq, at int32 }

// miner is one Mine call's state. Pages are renumbered densely (pages maps
// back) so the per-page scratch is slices: count, seen and slot are indexed
// by dense page and clean between passes.
type miner struct {
	cfg   Config
	seqs  [][]int32
	pages []webgraph.PageID
	count []int   // sessions supporting pattern·page, this pass
	seen  []int64 // pass<<32 | session that last counted pattern·page
	slot  []int32 // index of pattern·page among the frequent extensions, or -1
	pass  int64
	out   []Pattern
}

// extension is one frequent one-page extension of a pattern, and where it
// ends in the sessions that support it.
type extension struct {
	page    int32
	support int
	ends    []end
}

// extend appends every frequent one-page extension of pattern, which ends at
// ends, to m.out and then extends each in turn (depth first, so only one
// path of projections is held at a time).
func (m *miner) extend(pattern []webgraph.PageID, ends []end) {
	// Count each extension once per supporting session: the page right
	// after each occurrence.
	m.pass++
	var touched []int32
	for _, o := range ends {
		seq := m.seqs[o.seq]
		if int(o.at)+1 >= len(seq) {
			continue
		}
		x, key := seq[o.at+1], m.pass<<32|int64(o.seq)
		if m.seen[x] == key {
			continue
		}
		m.seen[x] = key
		if m.count[x] == 0 {
			touched = append(touched, x)
		}
		m.count[x]++
	}
	var exts []extension
	for _, x := range touched {
		if m.count[x] >= m.cfg.MinSupport {
			m.slot[x] = int32(len(exts))
			exts = append(exts, extension{page: x, support: m.count[x]})
		}
	}
	// Collect where each frequent extension ends: one page after each
	// occurrence it extends.
	if len(exts) > 0 {
		for _, o := range ends {
			seq := m.seqs[o.seq]
			if int(o.at)+1 >= len(seq) {
				continue
			}
			if k := m.slot[seq[o.at+1]]; k >= 0 {
				exts[k].ends = append(exts[k].ends, end{o.seq, o.at + 1})
			}
		}
	}
	for _, x := range touched {
		m.count[x], m.slot[x] = 0, -1
	}
	for _, e := range exts {
		pages := append(append(make([]webgraph.PageID, 0, len(pattern)+1), pattern...), m.pages[e.page])
		m.out = append(m.out, Pattern{Pages: pages, Support: e.support})
		if m.cfg.MaxLength == 0 || len(pages) < m.cfg.MaxLength {
			m.extend(pages, e.ends)
		}
	}
}

// Rule is a navigation association rule A => B: sessions that follow path A
// continue with page B with the given confidence.
type Rule struct {
	// Antecedent is the path A.
	Antecedent []webgraph.PageID
	// Consequent is the next page B.
	Consequent webgraph.PageID
	// Support is the support of A·B.
	Support int
	// Confidence is support(A·B) / support(A).
	Confidence float64
}

// String renders the rule, e.g. "[3 14] => 15 (conf 0.82, sup 42)".
func (r Rule) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, pg := range r.Antecedent {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", pg)
	}
	fmt.Fprintf(&sb, "] => %d (conf %.2f, sup %d)", r.Consequent, r.Confidence, r.Support)
	return sb.String()
}

// Rules derives association rules from mined patterns: for every frequent
// pattern A·B of length ≥ 2 whose prefix A is also frequent, it emits
// A => B when the confidence reaches minConfidence. Rules are sorted by
// descending confidence, then descending support.
func Rules(patterns []Pattern, minConfidence float64) []Rule {
	support := make(map[string]int, len(patterns))
	for _, p := range patterns {
		support[key(p.Pages)] = p.Support
	}
	var out []Rule
	for _, p := range patterns {
		if len(p.Pages) < 2 {
			continue
		}
		prefix := p.Pages[:len(p.Pages)-1]
		base, ok := support[key(prefix)]
		if !ok || base == 0 {
			continue
		}
		conf := float64(p.Support) / float64(base)
		if conf >= minConfidence {
			out = append(out, Rule{
				Antecedent: append([]webgraph.PageID(nil), prefix...),
				Consequent: p.Pages[len(p.Pages)-1],
				Support:    p.Support,
				Confidence: conf,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Confidence != b.Confidence {
			return a.Confidence > b.Confidence
		}
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		// Deterministic tail order: shorter antecedents first, then pages.
		if len(a.Antecedent) != len(b.Antecedent) {
			return len(a.Antecedent) < len(b.Antecedent)
		}
		for i := range a.Antecedent {
			if a.Antecedent[i] != b.Antecedent[i] {
				return a.Antecedent[i] < b.Antecedent[i]
			}
		}
		return a.Consequent < b.Consequent
	})
	return out
}

func key(pages []webgraph.PageID) string {
	var sb strings.Builder
	for _, p := range pages {
		fmt.Fprintf(&sb, "%d,", p)
	}
	return sb.String()
}
