package simulator

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
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
	// RequestCapHits counts agents stopped by the maxRequests safety cap.
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

// User is one log identity's share of a run: the real sessions and the
// server-side requests of every agent behind Label, as Run's Result holds
// them for that label.
type User struct {
	// Label is the log-visible identity: the agent's own address, or the
	// proxy address its agents share.
	Label string
	// Real holds the ground-truth sessions of Label's agents, in agent order.
	Real []session.Session
	// Stream is Label's server-side request sequence, in time order (the
	// Entries of Label's Result.Streams element).
	Stream []session.Entry
	// Refs[j] is the page the user navigated from when issuing Stream[j].
	Refs []webgraph.PageID
}

// Each simulates p.Agents users over g like Run, but hands each log identity
// to visit as soon as every agent behind it has finished, instead of
// collecting the run. visit runs on the calling goroutine, one user at a
// time, in completion order. The User and every slice it holds are valid only
// during visit: once visit returns, they are reused for later users, so a
// visit that keeps anything copies it. A run therefore holds at most two
// finished users per simulator worker (plus any proxy group still waiting for
// an agent), not its whole population, and in the steady state allocates
// nothing per agent but its label, and per proxy group its label and its
// member list. Every label of Run's Result is visited exactly once, with the
// Real, Stream and Refs Run gives it, and the returned Stats equal Run's.
func Each(g *webgraph.Graph, p Params, visit func(*User)) (Stats, error) {
	p, err := checkRun(g, p)
	if err != nil {
		return Stats{}, err
	}
	labels := assignUsers(p)
	// A shared label waits until all its agents are in; assignUsers fixed
	// how many that is.
	type member struct {
		agent int
		out   agentOutcome
	}
	var members map[string]int
	pending := make(map[string][]member)
	if p.ProxyFraction > 0 {
		members = make(map[string]int)
		for _, u := range labels {
			members[u]++
		}
	}
	// Outcomes visit is done with go back to the workers through free, which
	// holds every one in flight: two per worker and the one being visited.
	// Outcomes a proxy group parked come back on top of those, so what free
	// cannot take waits in spare and tops free up as the workers drain it.
	free := make(chan agentOutcome, 2*workers(p)+1)
	var spare []agentOutcome
	refill := func() {
		for n := len(spare); n > 0; n-- {
			select {
			case free <- spare[n-1]:
				spare[n-1], spare = agentOutcome{}, spare[:n-1]
			default:
				return
			}
		}
	}
	var u User
	var merged User            // a proxy group's buffers, reused for every group
	var subs [][]session.Entry // its agents' streams, in agent order
	var heap []cursor
	stats := Stats{Agents: p.Agents}
	handle := func(i int, o agentOutcome) {
		defer refill()
		stats.add(o.stats)
		label := labels[i]
		if members[label] <= 1 {
			u = User{Label: label, Real: o.real, Stream: o.served, Refs: o.refs}
			visit(&u)
			spare = append(spare, o)
			return
		}
		group, ok := pending[label]
		if !ok {
			group = make([]member, 0, members[label])
		}
		if group = append(group, member{i, o}); len(group) < members[label] {
			pending[label] = group
			return
		}
		delete(pending, label)
		// Agent order, whatever order the agents finished in.
		slices.SortFunc(group, func(a, b member) int { return a.agent - b.agent })
		merged.Real, merged.Stream, merged.Refs, subs = merged.Real[:0], merged.Stream[:0], merged.Refs[:0], subs[:0]
		for _, m := range group {
			merged.Real = append(merged.Real, m.out.real...)
			subs = append(subs, m.out.served)
		}
		heap = mergeByTime(heap, subs, func(k, j int) {
			merged.Stream = append(merged.Stream, group[k].out.served[j])
			merged.Refs = append(merged.Refs, group[k].out.refs[j])
		})
		u = merged
		u.Label = label
		visit(&u)
		for _, m := range group {
			spare = append(spare, m.out)
		}
	}
	// Finished agents come to this goroutine over a channel with one slot
	// per worker, so at most two per worker wait for visit: one in a slot,
	// one held by its blocked worker. The slots are there because without
	// them every agent costs a wake-up of this goroutine and a park of its
	// worker, which made the simulator ×1.09 slower on 2 cores.
	out := sendOutlet{free: free, done: make(chan finished, workers(p))}
	wait := eachAgent(g, p, labels, func() outlet { return out })
	defer wait()
	// Every agent index is claimed once, so exactly p.Agents outcomes come.
	for range p.Agents {
		f := <-out.done
		handle(f.i, f.o)
	}
	return stats, nil
}

// Run simulates p.Agents users over g. It parallelizes across agents; the
// output is deterministic in (g, p) because every agent draws from its own
// generator seeded with p.Seed and the agent index. Each worker writes its
// agents into an arena of its own and stores agent i's outcome at
// outcomes[i] itself, so Run only waits for the workers, then assembles the
// Result in agent order.
func Run(g *webgraph.Graph, p Params) (*Result, error) {
	p, err := checkRun(g, p)
	if err != nil {
		return nil, err
	}
	users := assignUsers(p)
	outcomes := make([]agentOutcome, p.Agents)
	wait := eachAgent(g, p, users, func() outlet { return &arena{outcomes: outcomes} })
	wait()

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
	for i := range outcomes {
		o := &outcomes[i]
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

// checkRun validates p against g and fills its defaults.
func checkRun(g *webgraph.Graph, p Params) (Params, error) {
	if err := p.Validate(); err != nil {
		return p, err
	}
	if len(g.StartPages()) == 0 {
		return p, fmt.Errorf("simulator: topology has no start pages")
	}
	return p.withDefaults(), nil
}

// workers is how many goroutines eachAgent runs p's agents on.
func workers(p Params) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, p.Agents)
}

// An outlet is where one worker's agents go: buf lends the slices the
// worker writes its next agent into (runAgent rewinds them), and hand takes
// agent i's finished outcome.
type outlet interface {
	buf() agentOutcome
	hand(i int, o agentOutcome)
}

// eachAgent simulates p's agents (p checked) on workers(p) goroutines and
// returns a wait that returns once every agent has been handed over. Each
// worker calls newOutlet once and runs every agent it claims through that
// outlet. Agent i's real sessions carry labels[i].
func eachAgent(g *webgraph.Graph, p Params, labels []string, newOutlet func() outlet) (wait func()) {
	var next atomic.Int64 // the next agent index to claim
	var wg sync.WaitGroup
	for range workers(p) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := newOutlet()
			// One scratch per worker, shared by all its agents.
			scr := &agentScratch{visited: make([]bool, g.NumPages())}
			// One generator per worker, re-seeded per agent. Its source draws
			// what rand.NewSource(seed) would, but builds a state word only
			// when a draw first reads it, so an agent pays for the draws it
			// makes, not for a 607-word seeding.
			rng := rand.New(newSource(0))
			for i := int(next.Add(1) - 1); i < p.Agents; i = int(next.Add(1) - 1) {
				// Seed each agent independently so scheduling cannot change
				// results. SplitMix-style mixing decorrelates nearby seeds.
				rng.Seed(mixSeed(p.Seed, int64(i)))
				// Whole-second start times survive the CLF format round trip.
				jitter := time.Duration(rng.Int63n(int64(p.StartWindow))).Truncate(time.Second)
				out.hand(i, runAgent(g, p, labels[i], origin.Add(jitter), rng, scr, out.buf()))
			}
		}()
	}
	return wg.Wait
}

// finished is agent i's outcome on its way from a worker to Each's visit.
type finished struct {
	i int
	o agentOutcome
}

// sendOutlet is Each's outlet, shared by its workers: an agent is written
// into an outcome taken from free when one is there, and into new slices
// when not, and goes to Each's goroutine on done.
type sendOutlet struct {
	free chan agentOutcome
	done chan finished
}

func (s sendOutlet) buf() (o agentOutcome) {
	select {
	case o = <-s.free:
	default:
	}
	return o
}

func (s sendOutlet) hand(i int, o agentOutcome) { s.done <- finished{i, o} }

// Run's workers write agents into chunks of arenaChunk elements, and start a
// fresh chunk once fewer than arenaTail remain.
const (
	arenaChunk = 16 << 10
	arenaTail  = 256
)

// arena is one Run worker's outlet. It owns a chunk for each slice kind the
// Result keeps, writes every agent into the chunks' tails and stores the
// agent's outcome as windows of them whose capacity is clipped, so an append
// to one user's slice cannot write into the next user's data. An agent that
// outgrows a tail is moved to a slice of its own by append. So a worker
// allocates a chunk per few hundred agents instead of slices per agent.
type arena struct {
	real     []session.Session
	entries  []session.Entry
	served   []session.Entry
	refs     []webgraph.PageID
	ends     []int          // scratch, rewound per agent: the Result keeps no ends
	outcomes []agentOutcome // Run's, one per agent
}

func (a *arena) buf() agentOutcome {
	return agentOutcome{
		real: chunkTail(&a.real), entries: chunkTail(&a.entries),
		served: chunkTail(&a.served), refs: chunkTail(&a.refs), ends: a.ends,
	}
}

func (a *arena) hand(i int, o agentOutcome) {
	a.ends = o.ends
	o.ends = nil
	o.real, o.entries = keepTail(&a.real, o.real), keepTail(&a.entries, o.entries)
	o.served, o.refs = keepTail(&a.served, o.served), keepTail(&a.refs, o.refs)
	a.outcomes[i] = o
}

// chunkTail returns the free end of *chunk, empty with the rest of its
// capacity, after starting a fresh chunk when fewer than arenaTail elements
// remain.
func chunkTail[E any](chunk *[]E) []E {
	if cap(*chunk)-len(*chunk) < arenaTail {
		*chunk = make([]E, 0, arenaChunk)
	}
	return (*chunk)[len(*chunk):]
}

// keepTail takes s, written from chunkTail(chunk), into *chunk and returns it
// with its capacity clipped. An s that append moved holds more capacity than
// the tail had; it is returned clipped and the tail stays free.
func keepTail[E any](chunk *[]E, s []E) []E {
	if cap(s) == cap(*chunk)-len(*chunk) {
		*chunk = (*chunk)[:len(*chunk)+len(s)]
	}
	return s[:len(s):len(s)]
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
	proxied, proxy := 0, ""
	for i := range users {
		if rng.Float64() < p.ProxyFraction {
			if proxied%p.ProxySize == 0 { // a new group: its label, once
				proxy = ProxyID(proxied / p.ProxySize)
			}
			users[i] = proxy
			proxied++
		} else {
			users[i] = AgentID(i)
		}
	}
	return users
}

// mergeSharedUsers folds streams (and referrer rows) of agents that share a
// log identity into one stream per user, merged by time; the paper's §1
// proxy effect. Streams of unshared users are untouched, as is Real: ground
// truth stays per physical user (with the shared User label, since that is
// what any reactive reconstruction can attribute sessions to). Merged
// streams are laid out back to back in one entry and one referrer buffer,
// so the merge allocates per run, not per shared user.
func (r *Result) mergeSharedUsers() {
	// A merged stream per label, in order of first appearance: how many
	// streams it folds, and its window [lo, hi) of the shared buffers.
	type merged struct{ streams, lo, hi int }
	slot := make(map[string]int, len(r.Streams))
	of := make([]int, len(r.Streams)) // each stream's slot
	var out []merged
	for i, st := range r.Streams {
		s, ok := slot[st.User]
		if !ok {
			s, slot[st.User] = len(out), len(out)
			out = append(out, merged{})
		}
		of[i] = s
		out[s].streams++
		out[s].hi += len(st.Entries)
	}
	if len(out) == len(r.Streams) {
		return
	}
	total := 0
	for s := range out {
		if m := &out[s]; m.streams > 1 {
			m.lo, m.hi, total = total, total, total+m.hi
		}
	}
	entries := make([]session.Entry, total)
	refs := make([]webgraph.PageID, total)
	streams := make([]session.Stream, len(out))
	rows := make([][]webgraph.PageID, len(out))
	shared := make([][]session.Entry, len(r.Streams)) // empty for unshared users
	for i, st := range r.Streams {
		streams[of[i]], rows[of[i]] = st, r.Referrers[i] // a shared label's Entries and row come below
		if out[of[i]].streams > 1 {
			shared[i] = st.Entries
		}
	}
	// One merge of every shared stream: its order within one label's
	// streams is the merge of that label's streams alone.
	mergeByTime(nil, shared, func(i, j int) {
		m := &out[of[i]]
		entries[m.hi], refs[m.hi] = shared[i][j], r.Referrers[i][j]
		m.hi++
	})
	for s, m := range out {
		if m.streams > 1 {
			streams[s].Entries, rows[s] = entries[m.lo:m.hi:m.hi], refs[m.lo:m.hi:m.hi]
		}
	}
	r.Streams, r.Referrers = streams, rows
}

// cursor is a stream's next entry in mergeByTime: its time in UnixNano, the
// stream, and the entry's position in it.
type cursor struct {
	at   int64
	s, j int32
}

func (c cursor) before(d cursor) bool { return c.at < d.at || c.at == d.at && c.s < d.s }

// mergeByTime is the one order of the simulator's output: a k-way merge, by
// (time, stream index), of streams that are each in time order. It calls
// yield(s, j) for every entry streams[s][j]. A stream's own entries keep their
// order, so the merge is a stable sort by time of the streams laid end to
// end, made without moving an entry: of a proxy group's streams in agent
// order, and of a run's streams in Result order for its log. It returns heap,
// its scratch, for the next merge to reuse.
func mergeByTime(heap []cursor, streams [][]session.Entry, yield func(s, j int)) []cursor {
	h := heap[:0]
	for s, st := range streams {
		if len(st) > 0 {
			h = append(h, cursor{st[0].Time.UnixNano(), int32(s), 0})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		c := h[0]
		yield(int(c.s), int(c.j))
		if st := streams[c.s]; int(c.j)+1 < len(st) {
			h[0] = cursor{st[c.j+1].Time.UnixNano(), c.s, c.j + 1}
		} else {
			h[0], h = h[len(h)-1], h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return h
}

// siftDown moves h[i] down the min-heap h to where it belongs.
func siftDown(h []cursor, i int) {
	for k := 2*i + 1; k < len(h); i, k = k, 2*k+1 {
		if k+1 < len(h) && h[k+1].before(h[k]) {
			k++
		}
		if !h[k].before(h[i]) {
			return
		}
		h[i], h[k] = h[k], h[i]
	}
}

// ProxyID formats the synthetic shared IP of proxy group g.
func ProxyID(g int) string {
	return dotted(10, 200, (g>>8)&255, g&255)
}

// AgentID formats the synthetic IP address of agent i (unique below 2^24
// agents), e.g. agent 259 -> "10.0.1.3".
func AgentID(i int) string {
	return dotted(10, (i>>16)&255, (i>>8)&255, i&255)
}

// dotted formats four octets as a dotted quad: what fmt's "%d.%d.%d.%d"
// prints, in one allocation, the string, where fmt makes two or more.
func dotted(a, b, c, d int) string {
	var buf [15]byte
	out := strconv.AppendInt(buf[:0], int64(a), 10)
	for _, o := range [3]int{b, c, d} {
		out = strconv.AppendInt(append(out, '.'), int64(o), 10)
	}
	return string(out)
}

// mixSeed decorrelates (seed, agent index) pairs with a SplitMix64 round.
func mixSeed(seed, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Log renders the run as an access log in mergeByTime's order: by time, then
// stream (agent order), then log position. Status is always 200 and the method
// GET (the simulator models successful fetches only), byte counts come from
// the page ID, and each record also carries the Combined Log Format's Referer,
// recorded at navigation time, and a synthetic user agent.
func (r *Result) Log(g *webgraph.Graph) []clf.Record {
	records := make([]clf.Record, 0, r.requests())
	r.render(g, func(rec clf.Record) { records = append(records, rec) })
	return records
}

// WriteLog writes Log's records through w, in w's format, each as the merge
// yields it, so the log is never held whole; then it flushes w.
func (r *Result) WriteLog(w *clf.Writer, g *webgraph.Graph) error {
	r.render(g, func(rec clf.Record) { w.Write(rec) }) // the first failed write is Flush's error
	return w.Flush()
}

// render yields Log's records one by one.
func (r *Result) render(g *webgraph.Graph, yield func(clf.Record)) {
	streams := make([][]session.Entry, len(r.Streams))
	for i := range r.Streams {
		streams[i] = r.Streams[i].Entries
	}
	mergeByTime(nil, streams, func(i, j int) {
		e := r.Streams[i].Entries[j]
		rec := clf.Record{Host: r.Streams[i].User, Ident: "-", AuthUser: "-", Time: e.Time,
			Method: "GET", URI: g.Label(e.Page), Protocol: "HTTP/1.1",
			Status: 200, Bytes: 1024 + int64(e.Page)*37%4096,
			Referer: clf.NoField, UserAgent: "agent-simulator/1.0"}
		if ref := r.Referrers[i][j]; g.Valid(ref) {
			rec.Referer = g.Label(ref)
		}
		yield(rec)
	})
}

// requests counts the run's server requests.
func (r *Result) requests() (n int) {
	for _, st := range r.Streams {
		n += len(st.Entries)
	}
	return n
}
