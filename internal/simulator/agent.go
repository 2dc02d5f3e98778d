package simulator

import (
	"math"
	"math/rand"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// agentScratch holds the per-agent working buffers — the browser-cache map
// and the page arena the pick/backtrack scans fill — so a worker reuses one
// set across all its agents instead of reallocating per agent. Each worker
// of a Run allocates its own.
type agentScratch struct {
	visited map[webgraph.PageID]bool
	pages   []webgraph.PageID
	cands   []btCand
}

// btCand is one backtrack candidate: position idx in the current real
// session, with its unvisited successors packed at pages[lo:hi].
type btCand struct {
	idx, lo, hi int
}

// agentOutcome collects everything one simulated user produced.
type agentOutcome struct {
	// real are the ground-truth sessions, every navigation included (cache
	// hits too).
	real []session.Session
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
	user    string
	now     time.Time
	scr     *agentScratch
	visited map[webgraph.PageID]bool // browser cache: everything ever fetched
	curReal []session.Entry
	out     agentOutcome
}

// runAgent simulates one user end to end. The generator must be dedicated to
// this agent (see Run), making the outcome a pure function of (g, p, seed) —
// scratch only lends buffers and never carries state between agents.
func runAgent(g *webgraph.Graph, p Params, user string, start time.Time, rng *rand.Rand, scr *agentScratch) agentOutcome {
	clear(scr.visited)
	a := &agent{
		g: g, p: p, rng: rng, user: user, now: start,
		scr: scr, visited: scr.visited,
	}
	a.run()
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
		if requests >= a.p.MaxRequests {
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
		succ := a.g.Succ(a.curReal[len(a.curReal)-1].Page)
		if len(succ) == 0 {
			// Dead-end page: the browser offers nothing to click; the user
			// leaves (the generators avoid sinks, so this is rare).
			a.out.stats.DeadEnds++
			break
		}
		a.now = a.now.Add(a.stay())
		next = a.pickSuccessor(succ)
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
		if len(a.curReal) > 0 {
			ref = a.curReal[len(a.curReal)-1].Page
		}
		a.out.served = append(a.out.served, session.Entry{Page: p, Time: a.now})
		a.out.refs = append(a.out.refs, ref)
		a.out.stats.ServerRequests++
	} else {
		a.out.stats.CacheHits++
	}
	a.curReal = append(a.curReal, session.Entry{Page: p, Time: a.now})
}

// stay samples a page-stay time from the configured distribution (Table 5's
// truncated normal N(MeanStay, StdDevStay²) by default, or the heavy-tailed
// lognormal ablation), clamped to [2s, ρ): the paper fixes behavior 2/3
// inter-request gaps below the 10-minute page-stay bound. Stays are whole
// seconds and at least 2s so that timestamps remain strictly increasing even
// after the one-second truncation of the CLF log format.
func (a *agent) stay() time.Duration {
	const floor = 2 * time.Second
	ceil := session.DefaultPageStay
	mean, sd := float64(a.p.MeanStay), float64(a.p.StdDevStay)
	for i := 0; i < 64; i++ {
		var raw float64
		if a.p.Stay == StayLognormal {
			// Median mean, log-scale sigma relative to the mean.
			sigma := sd / mean
			raw = mean * math.Exp(a.rng.NormFloat64()*sigma)
		} else {
			raw = a.rng.NormFloat64()*sd + mean
		}
		d := time.Duration(raw).Round(time.Second)
		if d >= floor && d < ceil {
			return d
		}
	}
	// Degenerate parameters (e.g. mean far outside the window): use the
	// clamped mean.
	d := a.p.MeanStay.Round(time.Second)
	if d < floor {
		d = floor
	}
	if d >= ceil {
		d = ceil - time.Second
	}
	return d
}

// pickStart returns a uniformly chosen unvisited start page when one
// remains (fresh=true), falling back to a uniformly chosen visited one
// (fresh=false, cache-served).
func (a *agent) pickStart() (p webgraph.PageID, fresh bool) {
	starts := a.g.StartPages()
	unvisited := a.scr.pages[:0]
	for _, s := range starts {
		if !a.visited[s] {
			unvisited = append(unvisited, s)
		}
	}
	a.scr.pages = unvisited
	if len(unvisited) > 0 {
		return unvisited[a.rng.Intn(len(unvisited))], true
	}
	return starts[a.rng.Intn(len(starts))], false
}

// backtrack implements behavior 3: pick an earlier page of the current real
// session that links to at least one unvisited page, walk back to it through
// the cache (each backward step costs a page-stay time and never reaches the
// server), close the current real session, open a new one starting at the
// backtrack target, and return the unvisited page to fetch next.
func (a *agent) backtrack() (webgraph.PageID, bool) {
	if len(a.curReal) < 2 {
		return webgraph.InvalidPage, false
	}
	// Candidate positions: everything before the most recent page. Each
	// position's unvisited successors are packed into the shared page arena
	// as a [lo, hi) range, so the scan allocates nothing once the scratch
	// buffers have grown to the agent's working set.
	arena := a.scr.pages[:0]
	cands := a.scr.cands[:0]
	for i := 0; i < len(a.curReal)-1; i++ {
		lo := len(arena)
		for _, v := range a.g.Succ(a.curReal[i].Page) {
			if !a.visited[v] {
				arena = append(arena, v)
			}
		}
		if len(arena) > lo {
			cands = append(cands, btCand{idx: i, lo: lo, hi: len(arena)})
		}
	}
	a.scr.pages, a.scr.cands = arena, cands
	if len(cands) == 0 {
		return webgraph.InvalidPage, false
	}
	c := cands[a.rng.Intn(len(cands))]
	target := a.curReal[c.idx].Page
	// Back/forward button presses through the cache: one stay per step.
	steps := len(a.curReal) - 1 - c.idx
	for s := 0; s < steps; s++ {
		a.now = a.now.Add(a.stay())
		a.out.stats.CacheHits++
		a.out.stats.Navigations++
	}
	// The simulator "adds a new session starting from [the] previous page
	// having [a] link to the next page" (§4, behavior 3).
	a.flushReal()
	a.curReal = append(a.curReal, session.Entry{Page: target, Time: a.now})
	a.now = a.now.Add(a.stay())
	fresh := arena[c.lo:c.hi]
	return fresh[a.rng.Intn(len(fresh))], true
}

// pickSuccessor applies the revisit policy to choose among linked pages.
func (a *agent) pickSuccessor(succ []webgraph.PageID) webgraph.PageID {
	if a.p.Revisit == RevisitAvoid {
		fresh := a.scr.pages[:0]
		for _, v := range succ {
			if !a.visited[v] {
				fresh = append(fresh, v)
			}
		}
		a.scr.pages = fresh
		if len(fresh) > 0 {
			return fresh[a.rng.Intn(len(fresh))]
		}
	}
	return succ[a.rng.Intn(len(succ))]
}

// flushReal closes the current real session, if any.
func (a *agent) flushReal() {
	if len(a.curReal) == 0 {
		return
	}
	a.out.real = append(a.out.real, session.Session{User: a.user, Entries: a.curReal})
	a.out.stats.RealSessions++
	a.curReal = nil
}
