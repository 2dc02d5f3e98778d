package heuristics

import (
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Navigation is the navigation-oriented heuristic (heur3, §2.2 after Cooley
// et al.): a new page may join the current session if some earlier page of
// the session links to it. When the most recent page does not link to the
// new page, the user is assumed to have moved back through the browser cache
// to the nearest (largest-timestamp) session page that does link to it, and
// those artificial backward movements are inserted into the session ("path
// completion"). When no session page links to the new page, the session is
// closed and a new one starts.
//
// The paper applies no time limit to this heuristic and discusses the
// resulting unbounded session growth as one of its weaknesses.
type Navigation struct {
	// Graph is the site topology consulted for hyperlinks.
	Graph *webgraph.Graph
}

// NewNavigation returns heur3 over the given topology, without a time
// limit, as the paper evaluates it.
func NewNavigation(g *webgraph.Graph) Navigation { return Navigation{Graph: g} }

// Name implements Reconstructor.
func (Navigation) Name() string { return "heur3" }

// Describe implements Reconstructor.
func (Navigation) Describe() string {
	return "navigation-oriented with backward path completion"
}

// Lend implements Reconstructor.
//
// Inserted backward movements carry interpolated timestamps strictly between
// the surrounding real requests, so that output sessions remain in
// non-decreasing time order; the paper's pseudocode does not assign them
// times (they are served from the browser cache and never hit the server).
// Sessions are assembled in one reusable scratch buffer and copied out
// exact-size from an entry arena when they close, so a stream with many
// sessions costs a handful of block allocations instead of per-session
// append churn.
func (h Navigation) Lend() (func([]session.Session, session.Stream) []session.Session, func()) {
	scr := new(navScratch)
	return func(dst []session.Session, st session.Stream) []session.Session {
		return h.appendSessions(dst, st, scr)
	}, scr.arena.rewind
}

// navScratch is the working state of a Navigation lane (Lend): the open
// session's buffer and the arena closed sessions are copied into.
type navScratch struct {
	cur   []session.Entry // the open session: reused, copied out on close
	arena entryArena
}

func (h Navigation) appendSessions(out []session.Session, stream session.Stream, scr *navScratch) []session.Session {
	arena := &scr.arena
	arena.seed(len(stream.Entries))
	cur := scr.cur[:0]
	closeCur := func() {
		out = append(out, session.Session{User: stream.User, Entries: arena.cloneAll(cur)})
		cur = cur[:0]
	}
	for _, e := range stream.Entries {
		if len(cur) == 0 {
			cur = append(cur, e)
			continue
		}
		last := cur[len(cur)-1]
		if h.Graph.HasEdge(last.Page, e.Page) {
			cur = append(cur, e)
			continue
		}
		// Find WPKmax: the session page with the largest timestamp (i.e.
		// nearest position scanning backwards) that links to the new page.
		k := -1
		for i := len(cur) - 2; i >= 0; i-- {
			if h.Graph.HasEdge(cur[i].Page, e.Page) {
				k = i
				break
			}
		}
		if k < 0 {
			// Nothing in the session reaches the new page: close and restart.
			closeCur()
			cur = append(cur, e)
			continue
		}
		// Insert backward movements WPN-1, WPN-2, ..., WPKmax, then the new
		// page (§2.2). Timestamps interpolate across (last.Time, e.Time).
		steps := len(cur) - 1 - k // number of inserted entries
		span := e.Time.Sub(last.Time)
		orig := len(cur)
		for i := orig - 2; i >= k; i-- {
			s := orig - 1 - i // 1-based insertion count
			cur = append(cur, session.Entry{
				Page: cur[i].Page,
				Time: last.Time.Add(span * time.Duration(s) / time.Duration(steps+1)),
			})
		}
		cur = append(cur, e)
	}
	if len(cur) > 0 {
		closeCur()
	}
	scr.cur = cur
	return out
}
