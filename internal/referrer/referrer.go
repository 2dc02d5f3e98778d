// Package referrer implements referrer-based session reconstruction over
// Combined Log Format records. When the server logs the Referer header,
// each request names the exact page the user navigated from, so sessions
// can be chained without heuristics about time or topology.
//
// The paper's setting deliberately excludes this information (its logs are
// common format), so this reconstructor is not one of the four contenders;
// it serves as the reactive upper bound: the best any server-side method
// can do short of proactive instrumentation. Cache-served navigations are
// still invisible, so even this upper bound is not 100% accurate — the gap
// between Smart-SRA and the referrer chain quantifies how much of the
// remaining loss is attributable to missing referrer data versus missing
// (cached) requests.
package referrer

import (
	"fmt"
	"sort"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Reconstructor chains combined-format records into sessions using their
// Referer fields, subject to the paper's two time rules.
type Reconstructor struct {
	// Graph resolves URIs (pages and referers) to topology pages.
	Graph *webgraph.Graph
	// Rules holds δ and ρ; zero value means the paper's defaults.
	Rules session.Rules
}

// New returns a referrer-based reconstructor with the paper's thresholds.
func New(g *webgraph.Graph) Reconstructor {
	return Reconstructor{Graph: g, Rules: session.DefaultRules()}
}

// Name identifies the reconstructor in reports.
func (Reconstructor) Name() string { return "heurR" }

// Describe explains the reconstructor.
func (r Reconstructor) Describe() string {
	return fmt.Sprintf("referrer-chain (δ=%v, ρ=%v) — reactive upper bound",
		r.Rules.TotalDuration, r.Rules.PageStay)
}

// request is one resolved log record.
type request struct {
	page webgraph.PageID
	ref  webgraph.PageID // InvalidPage when absent/unresolvable
	at   time.Time
}

// open tracks a session under construction.
type open struct {
	entries []session.Entry
	first   time.Time
}

// Reconstruct chains the records into sessions. For each request with a
// referer R, the request is appended to the most recently extended open
// session whose last page is R (within ρ of the request and within δ of the
// session start); requests without a usable referer — or whose referer
// matches no open session — start new sessions. This is the classic
// referrer-based sessionizing of Cooley et al., restricted by the paper's
// two time rules so its output remains comparable to Smart-SRA's.
func (r Reconstructor) Reconstruct(records []clf.Record) ([]session.Session, error) {
	if r.Graph == nil {
		return nil, fmt.Errorf("referrer: nil graph")
	}
	rules := r.Rules
	if rules.TotalDuration == 0 && rules.PageStay == 0 {
		rules = session.DefaultRules()
	}
	if err := rules.Validate(); err != nil {
		return nil, err
	}

	byUser := make(map[string][]request)
	var users []string
	for _, rec := range records {
		page, ok := r.Graph.PageByURI(rec.URI)
		if !ok {
			continue
		}
		ref := webgraph.InvalidPage
		if rec.HasReferer() {
			if p, ok := r.Graph.PageByURI(rec.Referer); ok {
				ref = p
			}
		}
		u := rec.Host
		if _, seen := byUser[u]; !seen {
			users = append(users, u)
		}
		byUser[u] = append(byUser[u], request{page: page, ref: ref, at: rec.Time})
	}
	sort.Strings(users)

	var out []session.Session
	for _, u := range users {
		reqs := byUser[u]
		sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].at.Before(reqs[j].at) })
		out = append(out, r.chainUser(u, reqs, rules)...)
	}
	return out, nil
}

// chainUser sessionizes one user's requests.
func (r Reconstructor) chainUser(user string, reqs []request, rules session.Rules) []session.Session {
	var sessions []open
	attach := func(q request) bool {
		if q.ref == webgraph.InvalidPage {
			return false
		}
		// Most recently extended candidate first.
		for i := len(sessions) - 1; i >= 0; i-- {
			s := &sessions[i]
			last := s.entries[len(s.entries)-1]
			if last.Page != q.ref {
				continue
			}
			if !last.Time.Before(q.at) || q.at.Sub(last.Time) > rules.PageStay {
				continue
			}
			if q.at.Sub(s.first) > rules.TotalDuration {
				continue
			}
			s.entries = append(s.entries, session.Entry{Page: q.page, Time: q.at})
			// Move the extended session to the end so ties prefer it next.
			moved := sessions[i]
			sessions = append(append(sessions[:i], sessions[i+1:]...), moved)
			return true
		}
		return false
	}
	for _, q := range reqs {
		if attach(q) {
			continue
		}
		// No open session ends at the referer. When the request carries one,
		// the user demonstrably navigated from that page — they re-arrived
		// at it through the browser cache — so the new session opens at the
		// referer itself (timestamped just before the request; the cache
		// arrival never hit the server, so its true time is unknown).
		entries := []session.Entry{{Page: q.page, Time: q.at}}
		if q.ref != webgraph.InvalidPage {
			entries = []session.Entry{
				{Page: q.ref, Time: q.at.Add(-time.Second)},
				{Page: q.page, Time: q.at},
			}
		}
		sessions = append(sessions, open{entries: entries, first: entries[0].Time})
	}
	out := make([]session.Session, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, session.Session{User: user, Entries: s.entries})
	}
	return out
}
