// Package session defines the data model shared by the session
// reconstruction heuristics, the agent simulator, and the evaluation
// harness: per-user request streams, sessions, the paper's two session
// validity rules (timestamp ordering and topology), and the
// contiguous-subsequence capture relation used by the accuracy metric.
package session

import (
	"fmt"
	"strconv"
	"time"

	"smartsra/internal/webgraph"
)

// DefaultTotalDuration is the paper's session-duration upper bound
// δ = 30 minutes (after Catledge & Pitkow).
const DefaultTotalDuration = 30 * time.Minute

// DefaultPageStay is the paper's page-stay upper bound ρ = 10 minutes.
const DefaultPageStay = 10 * time.Minute

// Entry is one page request: which page, and when.
type Entry struct {
	Page webgraph.PageID
	Time time.Time
}

// Stream is the timestamp-ordered request sequence of a single user, as
// observed by the web server (the paper's UserRequestSequence). It is the
// input to every reconstruction heuristic.
type Stream struct {
	// User identifies the client (typically the IP address).
	User string
	// Entries are the user's requests in non-decreasing timestamp order.
	Entries []Entry
}

// Session is a reconstructed or ground-truth user session: an ordered list
// of page views attributed to one user visit.
type Session struct {
	// User identifies the client the session belongs to.
	User string
	// Entries are the session's page views in order.
	Entries []Entry
}

// Len returns the number of page views in the session.
func (s Session) Len() int { return len(s.Entries) }

// Duration returns the elapsed time from the first to the last page view,
// or zero for sessions with fewer than two entries.
func (s Session) Duration() time.Duration {
	if len(s.Entries) < 2 {
		return 0
	}
	return s.Entries[len(s.Entries)-1].Time.Sub(s.Entries[0].Time)
}

// AppendText appends s compactly, e.g. "u7:[3 14 15]" — one line of the
// session text format, without the newline — to dst and returns the extended
// buffer. It allocates only when dst must grow, so a writer encoding many
// sessions into one reused buffer (WriteAll) pays nothing per session.
func (s Session) AppendText(dst []byte) []byte {
	dst = append(dst, s.User...)
	dst = append(dst, ':', '[')
	for i := range s.Entries {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(s.Entries[i].Page), 10)
	}
	return append(dst, ']')
}

// Clone returns a deep copy of the session.
func (s Session) Clone() Session {
	return Session{User: s.User, Entries: append([]Entry(nil), s.Entries...)}
}

// Rules bundles the paper's two time thresholds.
type Rules struct {
	// TotalDuration is δ: max elapsed time from a session's first to last
	// page (30 minutes in the paper).
	TotalDuration time.Duration
	// PageStay is ρ: max elapsed time between consecutive pages (10 minutes
	// in the paper).
	PageStay time.Duration
}

// DefaultRules returns the paper's thresholds (δ = 30 min, ρ = 10 min).
func DefaultRules() Rules {
	return Rules{TotalDuration: DefaultTotalDuration, PageStay: DefaultPageStay}
}

// Validate checks the thresholds are positive and consistent.
func (r Rules) Validate() error {
	if r.TotalDuration <= 0 {
		return fmt.Errorf("session: total-duration threshold %v not positive", r.TotalDuration)
	}
	if r.PageStay <= 0 {
		return fmt.Errorf("session: page-stay threshold %v not positive", r.PageStay)
	}
	if r.PageStay > r.TotalDuration {
		return fmt.Errorf("session: page-stay %v exceeds total duration %v", r.PageStay, r.TotalDuration)
	}
	return nil
}

// SatisfiesTimestampOrdering reports whether the session obeys the paper's
// Timestamp Ordering Rule: strictly increasing request times, with every
// consecutive gap at most r.PageStay.
func (s Session) SatisfiesTimestampOrdering(r Rules) bool {
	for i := 1; i < len(s.Entries); i++ {
		prev, cur := s.Entries[i-1], s.Entries[i]
		if !prev.Time.Before(cur.Time) {
			return false
		}
		if cur.Time.Sub(prev.Time) > r.PageStay {
			return false
		}
	}
	return true
}

// SatisfiesTopology reports whether the session obeys the paper's Topology
// Rule: a hyperlink exists from each page to the next.
func (s Session) SatisfiesTopology(g *webgraph.Graph) bool {
	for i := 1; i < len(s.Entries); i++ {
		if !g.HasEdge(s.Entries[i-1].Page, s.Entries[i].Page) {
			return false
		}
	}
	return true
}

// WithinTotalDuration reports whether the whole session fits in
// r.TotalDuration.
func (s Session) WithinTotalDuration(r Rules) bool {
	return s.Duration() <= r.TotalDuration
}

// Valid reports whether the session satisfies all three constraints a
// Smart-SRA session guarantees: timestamp ordering with the page-stay bound,
// the topology rule, and the total-duration bound.
func (s Session) Valid(g *webgraph.Graph, r Rules) bool {
	return s.SatisfiesTimestampOrdering(r) &&
		s.SatisfiesTopology(g) &&
		s.WithinTotalDuration(r)
}
