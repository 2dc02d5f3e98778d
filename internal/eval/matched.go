package eval

import (
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
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

	// ix finds the current user's captures: the real sessions are its
	// needles, the candidates (hays) its haystacks.
	ix   session.Index
	hays [][]webgraph.PageID
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
// It does not test every (real, candidate) pair: the real sessions and the
// candidates go into the containment index (session.Index), so real session
// i only visits the candidate positions of its own first page, and reads a
// candidate's pages only where its second page follows. An empty real
// session is captured by every candidate.
func (m *matcher) capture(real, cand pageLists) (captured int) {
	nr, nc := real.len(), cand.len()
	if cap(m.adj) < nr {
		m.adj = make([][]int, nr)
	}
	m.adj, m.nc = m.adj[:nr], nc
	m.adjArena = m.adjArena[:0]
	for i := range real.spans {
		m.ix.Want(real.list(i))
	}
	m.hays = m.hays[:0]
	for j := range cand.spans {
		m.hays = append(m.hays, cand.list(j))
	}
	m.ix.Build(m.hays)
	for i := range m.adj {
		lo := len(m.adjArena)
		m.ix.Containers(real.list(i), func(j int) bool {
			m.adjArena = append(m.adjArena, j)
			return true
		})
		m.adj[i] = m.adjArena[lo:len(m.adjArena):len(m.adjArena)]
		if len(m.adjArena) > lo {
			captured++
		}
	}
	m.ix.Reset()
	clear(m.hays)
	return captured
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
