package simulator

import (
	"math/rand"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// agentScratch holds the per-agent working buffers — the browser cache, one
// flag per page of the graph, the backtrack candidates and the unvisited
// successors of the one backtrack drew — so a worker reuses one set across
// all its agents instead of reallocating per agent. Each worker allocates
// its own.
type agentScratch struct {
	visited []bool
	cands   []int
	pages   []webgraph.PageID
}

// agentOutcome collects everything one simulated user produced. Its slices
// are lent by the worker's outlet (Each's recycled buffers, the tails of a
// Run worker's arena): runAgent rewinds them to [:0] and writes the agent
// into them.
type agentOutcome struct {
	// real are the ground-truth sessions, every navigation included (cache
	// hits too): cap-limited windows of entries, built when the agent ends.
	real []session.Session
	// entries holds every real session's entries back to back, and ends the
	// end index of each closed session in it: one arena per agent instead of
	// a growing slice per session.
	entries []session.Entry
	ends    []int
	// served are the requests that reached the web server, in time order —
	// the agent's slice of the access log.
	served []session.Entry
	// refs[i] is the page the user navigated from when issuing served[i]
	// (InvalidPage for session-opening requests) — what the browser would
	// put in the Referer header of a combined-format log.
	refs  []webgraph.PageID
	stats Stats
}

// agent is the per-user simulation state for one run of the Figure 7 loop.
type agent struct {
	g       *webgraph.Graph
	p       Params
	rng     *rand.Rand
	now     time.Time
	scr     *agentScratch
	visited []bool // browser cache: visited[p] once page p was fetched
	lo      int    // where the current real session starts in out.entries
	out     agentOutcome
}

// runAgent simulates one user end to end, writing it into buf's slices
// (rewound; a zero buf starts empty). The generator must be dedicated to
// this agent (see Run), making the outcome a pure function of (g, p, seed) —
// scratch and buf only lend buffers and never carry state between agents.
func runAgent(g *webgraph.Graph, p Params, user string, start time.Time, rng *rand.Rand, scr *agentScratch, buf agentOutcome) agentOutcome {
	clear(scr.visited)
	a := &agent{
		g: g, p: p, rng: rng, now: start,
		scr: scr, visited: scr.visited,
		out: agentOutcome{
			real: buf.real[:0], entries: buf.entries[:0], ends: buf.ends[:0],
			served: buf.served[:0], refs: buf.refs[:0],
		},
	}
	a.run()
	lo := 0
	for _, hi := range a.out.ends {
		a.out.real = append(a.out.real, session.Session{User: user, Entries: a.out.entries[lo:hi:hi]})
		lo = hi
	}
	return a.out
}

// run is the paper's Figure 7 agent loop with the four behaviors.
func (a *agent) run() {
	starts := a.g.StartPages()
	if len(starts) == 0 {
		return
	}
	next := starts[a.rng.Intn(len(starts))]
	for requests := 0; ; {
		a.visit(next)
		requests++
		if requests >= maxRequests {
			a.out.stats.RequestCapHits++
			break
		}
		if a.rng.Float64() < a.p.STP { // behavior 4: terminate
			a.out.stats.Terminations++
			break
		}
		if a.rng.Float64() < a.p.NIP { // behavior 1: jump to a start page
			// Figure 7 selects "a new, un-accessed initial page"; once the
			// agent has visited every start page, the jump still happens
			// (the user types the address) but the browser serves the page
			// from its cache, so the new session's first page never reaches
			// the server log.
			p, fresh := a.pickStart()
			if fresh {
				a.out.stats.NewInitialJumps++
			} else {
				a.out.stats.CachedStartJumps++
			}
			a.flushReal()
			a.now = a.now.Add(a.stay())
			next = p
			continue
		}
		if a.rng.Float64() < a.p.LPP { // behavior 3: back through the cache
			if p, ok := a.backtrack(); ok {
				a.out.stats.BackwardMoves++
				next = p
				continue
			}
			// No previous page offers an unvisited link; fall through to
			// behavior 2 from the current page.
			a.out.stats.BacktrackFailures++
		}
		// Behavior 2: follow a link from the most recent page.
		succ := a.g.Succ(a.out.entries[len(a.out.entries)-1].Page)
		if len(succ) == 0 {
			// Dead-end page: the browser offers nothing to click; the user
			// leaves. GenerateTopology draws binomial out-degrees and its
			// reachability pass gives an unreached page an in-link, never an
			// out-link, so a sink can survive; at Table 5's 300 pages and
			// mean out-degree 15 a topology has one with odds of about
			// 300·e⁻¹⁵ (under 10⁻⁴), so the figures never take this branch.
			a.out.stats.DeadEnds++
			break
		}
		// Uniformly among the linked pages: a target visited before is
		// served from the browser cache, in the real session but never in
		// the log (the paper's cache model).
		a.now = a.now.Add(a.stay())
		next = succ[a.rng.Intn(len(succ))]
	}
	a.flushReal()
}

// visit records arrival at page p at the current simulated time: it joins
// the real session, and reaches the server log only on a cache miss. The
// request's Referer is the page the user navigated from — the last page of
// the current real session, or none when this request opens a session.
func (a *agent) visit(p webgraph.PageID) {
	a.out.stats.Navigations++
	if !a.visited[p] {
		a.visited[p] = true
		ref := webgraph.InvalidPage
		if len(a.out.entries) > a.lo {
			ref = a.out.entries[len(a.out.entries)-1].Page
		}
		a.out.served = append(a.out.served, session.Entry{Page: p, Time: a.now})
		a.out.refs = append(a.out.refs, ref)
		a.out.stats.ServerRequests++
	} else {
		a.out.stats.CacheHits++
	}
	a.out.entries = append(a.out.entries, session.Entry{Page: p, Time: a.now})
}

// stay samples a page-stay time from Table 5's truncated normal
// N(meanStay, stdDevStay²), clamped to [2s, ρ): the paper fixes behavior 2/3
// inter-request gaps below the 10-minute page-stay bound. Stays are whole
// seconds and at least 2s so that timestamps remain strictly increasing even
// after the one-second truncation of the CLF log format.
func (a *agent) stay() time.Duration {
	const floor = 2 * time.Second
	for i := 0; i < 64; i++ {
		raw := a.rng.NormFloat64()*float64(stdDevStay) + float64(meanStay)
		if d := time.Duration(raw).Round(time.Second); d >= floor && d < session.DefaultPageStay {
			return d
		}
	}
	return meanStay.Round(time.Second) // 64 draws outside [2s, ρ): never seen
}

// pickStart returns a uniformly chosen unvisited start page when one
// remains (fresh=true), falling back to a uniformly chosen visited one
// (fresh=false, cache-served). It draws the rank of the page among the
// unvisited start pages, then walks to it, so no list of them is built.
func (a *agent) pickStart() (p webgraph.PageID, fresh bool) {
	starts := a.g.StartPages()
	unvisited := 0
	for _, s := range starts {
		if !a.visited[s] {
			unvisited++
		}
	}
	if unvisited == 0 {
		return starts[a.rng.Intn(len(starts))], false
	}
	k := a.rng.Intn(unvisited)
	for _, s := range starts {
		if a.visited[s] {
			continue
		}
		if k == 0 {
			p = s
			break
		}
		k--
	}
	return p, true
}

// backtrack implements behavior 3: pick an earlier page of the current real
// session that links to at least one unvisited page, walk back to it through
// the cache (each backward step costs a page-stay time and never reaches the
// server), close the current real session, open a new one starting at the
// backtrack target, and return the unvisited page to fetch next.
func (a *agent) backtrack() (webgraph.PageID, bool) {
	cur := a.out.entries[a.lo:] // the current real session
	if len(cur) < 2 {
		return webgraph.InvalidPage, false
	}
	// Candidate positions: everything before the most recent page that
	// links to an unvisited page; the scan of a position stops at the first
	// such link. Only the drawn position's unvisited successors are listed.
	cands := a.scr.cands[:0]
	for i := 0; i < len(cur)-1; i++ {
		for _, v := range a.g.Succ(cur[i].Page) {
			if !a.visited[v] {
				cands = append(cands, i)
				break
			}
		}
	}
	a.scr.cands = cands
	if len(cands) == 0 {
		return webgraph.InvalidPage, false
	}
	c := cands[a.rng.Intn(len(cands))]
	fresh := a.scr.pages[:0]
	for _, v := range a.g.Succ(cur[c].Page) {
		if !a.visited[v] {
			fresh = append(fresh, v)
		}
	}
	a.scr.pages = fresh
	target := cur[c].Page
	// Back/forward button presses through the cache: one stay per step.
	steps := len(cur) - 1 - c
	for s := 0; s < steps; s++ {
		a.now = a.now.Add(a.stay())
		a.out.stats.CacheHits++
		a.out.stats.Navigations++
	}
	// The simulator "adds a new session starting from [the] previous page
	// having [a] link to the next page" (§4, behavior 3).
	a.flushReal()
	a.out.entries = append(a.out.entries, session.Entry{Page: target, Time: a.now})
	a.now = a.now.Add(a.stay())
	return fresh[a.rng.Intn(len(fresh))], true
}

// flushReal closes the current real session, if any: it records where the
// session ends in the entry arena, and runAgent makes it a Session.
func (a *agent) flushReal() {
	if len(a.out.entries) == a.lo {
		return
	}
	a.lo = len(a.out.entries)
	a.out.ends = append(a.out.ends, a.lo)
	a.out.stats.RealSessions++
}
