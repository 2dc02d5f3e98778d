package eval

import (
	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// The scoring kernel. Every scorer — Score, ScoreMatched, Summarize and the
// point driver — ends here: one user's real sessions and one user's
// candidates go in as packed page lists, the capture graph between them is
// built once (matcher.capture), and both accuracy readings come off it.

// pageLists packs page sequences into one arena: list i is
// pages[spans[i].lo:spans[i].hi]. A sub-slice of spans over the same pages
// is a view of a run of lists, which is how one user's sessions reach the
// matcher.
type pageLists struct {
	pages []webgraph.PageID
	spans []span
}

type span struct{ lo, hi int }

func (p pageLists) len() int { return len(p.spans) }

func (p pageLists) list(i int) []webgraph.PageID { return p.pages[p.spans[i].lo:p.spans[i].hi] }

func (p *pageLists) reset() { p.pages, p.spans = p.pages[:0], p.spans[:0] }

func (p *pageLists) add(entries []session.Entry) {
	lo := len(p.pages)
	for i := range entries {
		p.pages = append(p.pages, entries[i].Page)
	}
	p.spans = append(p.spans, span{lo, len(p.pages)})
}

// sessionIndex is a session set grouped by user label — through a map, not
// by position, because proxy-merged agents share one label. User number u
// owns lists [first[u], first[u+1]). It is read-only once built, so all the
// scorers of a point share the index of its real sessions.
type sessionIndex struct {
	users map[string]int
	first []int
	lists pageLists
}

func (ix *sessionIndex) user(u int) pageLists {
	return pageLists{pages: ix.lists.pages, spans: ix.lists.spans[ix.first[u]:ix.first[u+1]]}
}

// groupByUser packs sessions and counting-sorts their spans into per-user
// runs under the numbering in users, each user's sessions in input order.
// With grow set an unseen label takes the next number (the real side, which
// defines the numbering); otherwise its sessions are left out (candidates of
// a user with no real session can capture nothing).
func groupByUser(sessions []session.Session, users map[string]int, grow bool) *sessionIndex {
	in := pageLists{spans: make([]span, 0, len(sessions))}
	owner := make([]int, 0, len(sessions))
	first := make([]int, len(users)+1)
	for i := range sessions {
		u, ok := users[sessions[i].User]
		if !ok {
			if !grow {
				continue
			}
			u = len(users)
			users[sessions[i].User] = u
			first = append(first, 0)
		}
		in.add(sessions[i].Entries)
		owner = append(owner, u)
		first[u+1]++
	}
	for u := 1; u < len(first); u++ {
		first[u] += first[u-1]
	}
	next := append([]int(nil), first...)
	spans := make([]span, len(owner))
	for k, u := range owner {
		spans[next[u]] = in.spans[k]
		next[u]++
	}
	return &sessionIndex{users: users, first: first, lists: pageLists{pages: in.pages, spans: spans}}
}

// indexSessions groups a ground-truth session set by user.
func indexSessions(real []session.Session) *sessionIndex {
	return groupByUser(real, make(map[string]int), true)
}

// tally is what scoring one heuristic's candidates yields. Every field is an
// integer sum over users.
type tally struct {
	// exists counts real sessions some candidate captures; matched is the
	// summed per-user maximum matching.
	exists, matched int
	// hist[n] counts candidate sessions n pages long.
	hist []int
}

func (t *tally) count(length int) {
	if length >= len(t.hist) {
		t.hist = append(t.hist, make([]int, length+1-len(t.hist))...)
	}
	t.hist[length]++
}

// stats reads SessionStats off the length histogram; the median is the
// exact one a sort would give (mean of the two middle ranks).
func (t tally) stats() SessionStats {
	var st SessionStats
	pages := 0
	for n, c := range t.hist {
		if c > 0 {
			st.Sessions += c
			pages += n * c
			st.MaxLength = n
		}
	}
	if st.Sessions == 0 {
		return st
	}
	st.MeanLength = float64(pages) / float64(st.Sessions)
	loRank, hiRank := (st.Sessions-1)/2, st.Sessions/2
	lo, seen := -1, 0
	for n, c := range t.hist {
		seen += c
		if lo < 0 && seen > loRank {
			lo = n
		}
		if seen > hiRank {
			st.MedianLength = float64(lo+n) / 2
			break
		}
	}
	return st
}

// scorer is one pass's scratch and running sums.
type scorer struct {
	tally
	m    matcher
	cand pageLists // the current user's candidates, repacked per user
}

// user scores one user: both readings of the one capture graph.
func (s *scorer) user(real, cand pageLists) {
	if cand.len() == 0 {
		return // nothing can be captured; skip the walk over the real sessions
	}
	s.exists += s.m.capture(real, cand)
	s.matched += s.m.matching()
}

// scoreSessions scores a candidate set in any order against the indexed real
// sessions: group by user, then the kernel per user.
func (ix *sessionIndex) scoreSessions(candidates []session.Session) tally {
	cx := groupByUser(candidates, ix.users, false)
	var s scorer
	for u := 0; u < len(ix.first)-1; u++ {
		s.user(ix.user(u), cx.user(u))
	}
	return s.tally
}

// scoreStreams reconstructs and scores each stream where it stands: one
// user's candidates are packed, measured and matched, then released, so no
// candidate set for the whole population ever exists. Streams must carry
// distinct users (simulator.Run and prep.BuildStreams both guarantee it).
func (ix *sessionIndex) scoreStreams(h heuristics.Reconstructor, streams []session.Stream) tally {
	var s scorer
	reconstruct, release := heuristics.Lend(h)
	for _, st := range streams {
		s.candidates(ix, st.User, reconstruct(st))
		release()
	}
	return s.tally
}

// candidates takes one user's whole candidate set: it copies the pages into
// the scratch arena — the sessions themselves are not kept — counts the
// lengths, and scores the user if it has real sessions.
func (s *scorer) candidates(ix *sessionIndex, user string, cands []session.Session) {
	s.cand.reset()
	for i := range cands {
		s.count(len(cands[i].Entries))
		s.cand.add(cands[i].Entries)
	}
	if u, ok := ix.users[user]; ok {
		s.user(ix.user(u), s.cand)
	}
}
