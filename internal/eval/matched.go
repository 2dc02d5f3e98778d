package eval

import (
	"slices"

	"smartsra/internal/session"
)

// ScoreMatched computes accuracy under one-to-one matching: each
// reconstructed session may be credited for at most one real session
// (maximum bipartite matching between real sessions and the candidates that
// capture them, computed exactly with the Hungarian augmenting-path method).
//
// Rationale: §5.2's curves are inconsistent with the unconstrained
// exists-a-capturer reading of §5.1. Under that reading a navigation-
// oriented session is a superset of the corresponding time-gap session
// (insertions only ever occur at hyperlink discontinuities, which cannot
// fall inside a real session), so heur3 would weakly dominate heur2 and
// both would sit far above the paper's reported 25-35% — our simulator
// measures 65-93% for all four heuristics under that metric. Reading
// "the ratio of correctly reconstructed sessions" as a one-to-one
// correspondence — a reconstructed session is "correct" when it captures a
// real session, and a heuristic that merges five real sessions into one
// candidate has reconstructed one session, not five — yields exactly the
// paper's ordering and levels. See DESIGN.md and EXPERIMENTS.md; Score keeps
// the literal unconstrained metric for comparison.
func ScoreMatched(real, candidates []session.Session) Accuracy {
	t := indexSessions(real).scoreSessions(candidates)
	return Accuracy{Real: len(real), Captured: t.matched}
}

// matcher holds one user's capture graph and computes its maximum bipartite
// matching, keeping its buffers across users so the steady state allocates
// nothing. Not safe for concurrent use; it lives in a scratch, which the
// scorers of one point share and take turns with.
type matcher struct {
	adj       [][]int
	adjArena  []int
	nc        int // candidates in the current graph
	matchCand []int
	seen      []bool
	stack     []matchFrame

	// The current user's page-occurrence index over the pages some real
	// session starts with: head[p] is the first entry of page p's chain in
	// occ, and the chain lists every occurrence of p in the candidates in
	// ascending candidate, then position, order. head[p] is unindexed for
	// any other page, and for every page between users.
	head []int
	occ  []occurrence
}

// Sentinels in head and occurrence.next.
const (
	unindexed = -1 // head: no real session of the user starts with the page
	chainEnd  = -2 // the page's chain has no (further) occurrence
)

// occurrence is one position of a page in the candidates: candidate j holds
// it at pages[at], and next is the page's following occurrence.
type occurrence struct {
	j, at, next int
}

// matchFrame is one level of the explicit augmenting-path DFS: real node i,
// the next position in adj[i] to try, and the candidate taken to descend.
type matchFrame struct {
	i, ai, j int
}

// capture builds one user's capture graph — adj[i] lists, in ascending order,
// the candidates that capture real session i, packed into one arena — and
// returns how many real sessions have a capturer at all, the Exists reading.
// Nothing else in eval evaluates the capture relation.
//
// It does not test every (real, candidate) pair. The candidates' occurrences
// of the real sessions' first pages are indexed first (index), so real
// session i only visits the occurrences of its own first page, and takes
// candidate j once if the pages from that occurrence on spell the session.
// An empty real session is captured by every candidate.
func (m *matcher) capture(real, cand pageLists) (captured int) {
	nr, nc := real.len(), cand.len()
	if cap(m.adj) < nr {
		m.adj = make([][]int, nr)
	}
	m.adj, m.nc = m.adj[:nr], nc
	m.adjArena = m.adjArena[:0]
	m.index(real, cand)
	for i := range m.adj {
		rp := real.list(i)
		lo := len(m.adjArena)
		if len(rp) == 0 {
			for j := 0; j < nc; j++ {
				m.adjArena = append(m.adjArena, j)
			}
		} else {
			last := -1
			for o := m.head[rp[0]]; o >= 0; o = m.occ[o].next {
				oc := m.occ[o]
				if oc.j == last || oc.at+len(rp) > cand.spans[oc.j].hi {
					continue
				}
				if slices.Equal(cand.pages[oc.at:oc.at+len(rp)], rp) {
					m.adjArena = append(m.adjArena, oc.j)
					last = oc.j
				}
			}
		}
		m.adj[i] = m.adjArena[lo:len(m.adjArena):len(m.adjArena)]
		if len(m.adjArena) > lo {
			captured++
		}
	}
	m.unindex(real)
	return captured
}

// index opens an empty chain for every page a real session starts with, then
// chains every candidate occurrence of those pages. Candidates and positions
// are walked backwards and each occurrence is pushed on its chain's front,
// so every chain reads in ascending order.
func (m *matcher) index(real, cand pageLists) {
	for i := range real.spans {
		if rp := real.list(i); len(rp) > 0 {
			p := int(rp[0])
			for p >= len(m.head) {
				m.head = append(m.head, unindexed)
			}
			m.head[p] = chainEnd
		}
	}
	m.occ = m.occ[:0]
	for j := cand.len() - 1; j >= 0; j-- {
		sp := cand.spans[j]
		for at := sp.hi - 1; at >= sp.lo; at-- {
			p := int(cand.pages[at])
			if p >= len(m.head) || m.head[p] == unindexed {
				continue
			}
			m.occ = append(m.occ, occurrence{j: j, at: at, next: m.head[p]})
			m.head[p] = len(m.occ) - 1
		}
	}
}

// unindex closes the chains index opened, leaving head all unindexed for the
// next user at the cost of the real sessions, not of the table.
func (m *matcher) unindex(real pageLists) {
	for i := range real.spans {
		if rp := real.list(i); len(rp) > 0 {
			m.head[rp[0]] = unindexed
		}
	}
}

// matching returns the maximum matching size of the graph capture just
// built, the Matched reading. Per-user problem sizes are usually tiny (tens
// of sessions), but merged proxy users can be arbitrarily large, so the
// augmenting-path search uses an explicit stack — the recursive formulation
// overflows the goroutine stack on adversarial instances whose augmenting
// chains thread through every session (see TestMatchUserDeepChain).
func (m *matcher) matching() int {
	if cap(m.matchCand) < m.nc {
		m.matchCand = make([]int, m.nc)
		m.seen = make([]bool, m.nc)
	}
	matchCand := m.matchCand[:m.nc] // candidate -> real (or -1)
	seen := m.seen[:m.nc]
	for j := range matchCand {
		matchCand[j] = -1
	}
	matched := 0
	for i := range m.adj {
		if len(m.adj[i]) == 0 {
			continue
		}
		for j := range seen {
			seen[j] = false
		}
		if m.augment(m.adj, matchCand, seen, i) {
			matched++
		}
	}
	return matched
}

// augment searches for an augmenting path from real node start with an
// iterative DFS over alternating edges, flipping the path's assignments on
// success. Semantics match the classic recursive tryAssign exactly: each
// frame resumes scanning its adjacency list where it left off when a deeper
// reassignment attempt fails.
func (m *matcher) augment(adj [][]int, matchCand []int, seen []bool, start int) bool {
	stack := append(m.stack[:0], matchFrame{i: start})
	defer func() { m.stack = stack[:0] }()
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		descended := false
		for f.ai < len(adj[f.i]) {
			j := adj[f.i][f.ai]
			f.ai++
			if seen[j] {
				continue
			}
			seen[j] = true
			f.j = j
			if matchCand[j] < 0 {
				// Free candidate: flip every (real, candidate) pair on the
				// path, rooting the augmented matching.
				for _, g := range stack {
					matchCand[g.j] = g.i
				}
				return true
			}
			stack = append(stack, matchFrame{i: matchCand[j]})
			descended = true
			break
		}
		if !descended && f.ai >= len(adj[f.i]) {
			stack = stack[:len(stack)-1] // exhausted: backtrack to the parent
		}
	}
	return false
}
