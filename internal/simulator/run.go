package simulator

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Stats aggregates what happened during a run.
type Stats struct {
	// Agents is the number of users simulated.
	Agents int
	// Navigations counts every page view, cache-served or not.
	Navigations int
	// ServerRequests counts page views that reached the server log.
	ServerRequests int
	// CacheHits counts page views served from the browser cache.
	CacheHits int
	// RealSessions is the number of ground-truth sessions generated.
	RealSessions int
	// Terminations counts behavior-4 session endings (STP fired).
	Terminations int
	// NewInitialJumps counts behavior-1 events (NIP fired, fresh start page).
	NewInitialJumps int
	// BackwardMoves counts behavior-3 events (LPP fired and succeeded).
	BackwardMoves int
	// BacktrackFailures counts LPP draws that found no usable target and
	// fell through to behavior 2.
	BacktrackFailures int
	// DeadEnds counts agents stopped on pages without out-links.
	DeadEnds int
	// CachedStartJumps counts behavior-1 events whose target start page was
	// already cached (the jump never reached the server log).
	CachedStartJumps int
	// RequestCapHits counts agents stopped by the MaxRequests safety cap.
	RequestCapHits int
}

// add accumulates b into s.
func (s *Stats) add(b Stats) {
	s.Agents += b.Agents
	s.Navigations += b.Navigations
	s.ServerRequests += b.ServerRequests
	s.CacheHits += b.CacheHits
	s.RealSessions += b.RealSessions
	s.Terminations += b.Terminations
	s.NewInitialJumps += b.NewInitialJumps
	s.BackwardMoves += b.BackwardMoves
	s.BacktrackFailures += b.BacktrackFailures
	s.DeadEnds += b.DeadEnds
	s.CachedStartJumps += b.CachedStartJumps
	s.RequestCapHits += b.RequestCapHits
}

// String summarizes the run for reports.
func (s Stats) String() string {
	return fmt.Sprintf(
		"agents=%d navigations=%d served=%d cache=%d realSessions=%d nip=%d lpp=%d",
		s.Agents, s.Navigations, s.ServerRequests, s.CacheHits,
		s.RealSessions, s.NewInitialJumps, s.BackwardMoves)
}

// Result is everything a simulation run produces.
type Result struct {
	// Real holds the ground-truth sessions of all agents, grouped by agent
	// in agent order.
	Real []session.Session
	// Streams holds each agent's server-side request sequence — what a
	// lossless log pipeline (parse, clean, identify users) recovers. One
	// stream per agent that issued at least one server request, in agent
	// order.
	Streams []session.Stream
	// Referrers[i][j] is the page the user navigated from when issuing
	// Streams[i].Entries[j] (InvalidPage for session-opening requests).
	// It becomes the Referer field of the combined-format log.
	Referrers [][]webgraph.PageID
	// Stats aggregates run counters.
	Stats Stats
}

// Run simulates p.Agents users over g. It parallelizes across agents; the
// output is deterministic in (g, p) because every agent draws from its own
// generator seeded with p.Seed and the agent index.
func Run(g *webgraph.Graph, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(g.StartPages()) == 0 {
		return nil, fmt.Errorf("simulator: topology has no start pages")
	}
	p = p.withDefaults()

	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p.Agents {
		workers = p.Agents
	}

	outcomes := make([]agentOutcome, p.Agents)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scratch per worker, shared by all its agents.
			scr := &agentScratch{visited: make(map[webgraph.PageID]bool)}
			// One generator per worker, re-seeded per agent: Seed rebuilds the
			// whole 4.9 KB source state, so the draws equal a fresh source's
			// without allocating one per agent.
			rng := rand.New(rand.NewSource(0))
			for i := range next {
				// Seed each agent independently so scheduling cannot change
				// results. SplitMix-style mixing decorrelates nearby seeds.
				rng.Seed(mixSeed(p.Seed, int64(i)))
				// Whole-second start times survive the CLF format round trip.
				jitter := time.Duration(rng.Int63n(int64(p.StartWindow))).Truncate(time.Second)
				start := p.Start.Add(jitter)
				outcomes[i] = runAgent(g, p, AgentID(i), start, rng, scr)
			}
		}()
	}
	for i := 0; i < p.Agents; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	nReal, nStreams := 0, 0
	for i := range outcomes {
		nReal += len(outcomes[i].real)
		if len(outcomes[i].served) > 0 {
			nStreams++
		}
	}
	res := &Result{
		Real:      make([]session.Session, 0, nReal),
		Streams:   make([]session.Stream, 0, nStreams),
		Referrers: make([][]webgraph.PageID, 0, nStreams),
	}
	res.Stats.Agents = p.Agents
	users := assignUsers(p)
	for i := range outcomes {
		o := &outcomes[i]
		for s := range o.real {
			o.real[s].User = users[i]
		}
		res.Real = append(res.Real, o.real...)
		if len(o.served) > 0 {
			res.Streams = append(res.Streams, session.Stream{
				User:    users[i],
				Entries: o.served,
			})
			res.Referrers = append(res.Referrers, o.refs)
		}
		res.Stats.add(o.stats)
	}
	res.mergeSharedUsers()
	return res, nil
}

// assignUsers maps each agent index to its log-visible identity: its own
// synthetic IP, or — for ProxyFraction of agents, chunked ProxySize at a
// time — a shared proxy IP. Assignment is deterministic in the seed.
func assignUsers(p Params) []string {
	users := make([]string, p.Agents)
	if p.ProxyFraction <= 0 {
		for i := range users {
			users[i] = AgentID(i)
		}
		return users
	}
	rng := rand.New(rand.NewSource(mixSeed(p.Seed, -1)))
	proxied := 0
	for i := range users {
		if rng.Float64() < p.ProxyFraction {
			group := proxied / p.ProxySize
			users[i] = ProxyID(group)
			proxied++
		} else {
			users[i] = AgentID(i)
		}
	}
	return users
}

// mergeSharedUsers folds streams (and referrer rows) of agents that share a
// log identity into one stream per user, re-sorted by time; the paper's §1
// proxy effect. Streams of unshared users are untouched, as is Real: ground
// truth stays per physical user (with the shared User label, since that is
// what any reactive reconstruction can attribute sessions to).
func (r *Result) mergeSharedUsers() {
	count := make(map[string]int, len(r.Streams))
	for _, st := range r.Streams {
		count[st.User]++
	}
	shared := false
	for _, c := range count {
		if c > 1 {
			shared = true
			break
		}
	}
	if !shared {
		return
	}
	type merged struct {
		entries []session.Entry
		refs    []webgraph.PageID
	}
	byUser := make(map[string]*merged)
	var order []string
	for i, st := range r.Streams {
		m := byUser[st.User]
		if m == nil {
			m = &merged{}
			byUser[st.User] = m
			order = append(order, st.User)
		}
		m.entries = append(m.entries, st.Entries...)
		m.refs = append(m.refs, r.Referrers[i]...)
	}
	r.Streams = r.Streams[:0]
	r.Referrers = r.Referrers[:0]
	for _, u := range order {
		m := byUser[u]
		// Sort entries and referrers together by time (stable to preserve
		// per-agent order on ties).
		idx := make([]int, len(m.entries))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return m.entries[idx[a]].Time.Before(m.entries[idx[b]].Time)
		})
		entries := make([]session.Entry, len(idx))
		refs := make([]webgraph.PageID, len(idx))
		for i, j := range idx {
			entries[i] = m.entries[j]
			refs[i] = m.refs[j]
		}
		r.Streams = append(r.Streams, session.Stream{User: u, Entries: entries})
		r.Referrers = append(r.Referrers, refs)
	}
}

// ProxyID formats the synthetic shared IP of proxy group g.
func ProxyID(g int) string {
	return fmt.Sprintf("10.200.%d.%d", (g>>8)&255, g&255)
}

// AgentID formats the synthetic IP address of agent i (unique below 2^24
// agents), e.g. agent 259 -> "10.0.1.3".
func AgentID(i int) string {
	return fmt.Sprintf("10.%d.%d.%d", (i>>16)&255, (i>>8)&255, i&255)
}

// mixSeed decorrelates (seed, agent index) pairs with a SplitMix64 round.
func mixSeed(seed, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Log renders the run as a Common Log Format access log: all agents'
// server-side requests merged into timestamp order (ties broken by agent,
// then log position). Byte counts are synthesized deterministically from the
// page ID; status is always 200 and the method GET, since the simulator
// models successful page fetches only.
func (r *Result) Log(g *webgraph.Graph) []clf.Record {
	return r.log(g, false)
}

// LogCombined renders the run as a Combined Log Format access log: like Log,
// plus the Referer recorded at navigation time and a synthetic user agent.
// This is the input for referrer-based reconstruction (internal/referrer).
func (r *Result) LogCombined(g *webgraph.Graph) []clf.Record {
	return r.log(g, true)
}

func (r *Result) log(g *webgraph.Graph, combined bool) []clf.Record {
	var records []clf.Record
	for i, st := range r.Streams {
		for j, e := range st.Entries {
			rec := clf.Record{
				Host:     st.User,
				Ident:    "-",
				AuthUser: "-",
				Time:     e.Time,
				Method:   "GET",
				URI:      g.Label(e.Page),
				Protocol: "HTTP/1.1",
				Status:   200,
				Bytes:    1024 + int64(e.Page)*37%4096,
			}
			if combined {
				rec.UserAgent = "agent-simulator/1.0"
				rec.Referer = clf.NoField
				if ref := r.Referrers[i][j]; g.Valid(ref) {
					rec.Referer = g.Label(ref)
				}
			}
			records = append(records, rec)
		}
	}
	sort.SliceStable(records, func(i, j int) bool {
		return records[i].Time.Before(records[j].Time)
	})
	return records
}
