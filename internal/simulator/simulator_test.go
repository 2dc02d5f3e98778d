package simulator

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// testTopology returns a small paper-style topology for fast tests.
func testTopology(t testing.TB) *webgraph.Graph {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 80, AvgOutDegree: 6, StartPageFraction: 0.1,
	}, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testParams returns fast, valid parameters.
func testParams() Params {
	p := PaperParams()
	p.Agents = 200
	return p
}

func TestParamsValidate(t *testing.T) {
	if err := PaperParams().Validate(); err != nil {
		t.Fatalf("paper params invalid: %v", err)
	}
	mut := func(f func(*Params)) Params {
		p := PaperParams()
		f(&p)
		return p
	}
	bad := []Params{
		mut(func(p *Params) { p.STP = 0 }),
		mut(func(p *Params) { p.STP = 1 }),
		mut(func(p *Params) { p.LPP = -0.1 }),
		mut(func(p *Params) { p.LPP = 1 }),
		mut(func(p *Params) { p.NIP = -0.1 }),
		mut(func(p *Params) { p.NIP = 1 }),
		mut(func(p *Params) { p.Agents = 0 }),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	g := testTopology(t)
	if _, err := Run(g, bad[0]); err == nil {
		t.Error("Run accepted invalid params")
	}
}

func TestPaperParamsMatchTable5(t *testing.T) {
	p := PaperParams()
	if p.STP != 0.05 || p.LPP != 0.30 || p.NIP != 0.30 {
		t.Errorf("probabilities %v/%v/%v, want 0.05/0.30/0.30", p.STP, p.LPP, p.NIP)
	}
	if meanStay != 2*time.Minute+7200*time.Millisecond {
		t.Errorf("mean stay = %v, want 2.12 min", meanStay)
	}
	if stdDevStay != 30*time.Second {
		t.Errorf("stay deviation = %v, want 0.5 min", stdDevStay)
	}
	if p.Agents != 10000 {
		t.Errorf("agents = %d, want 10000", p.Agents)
	}
}

func TestRunRequiresStartPages(t *testing.T) {
	g := webgraph.NewBuilder(3).MustBuild()
	if _, err := Run(g, testParams()); err == nil {
		t.Error("Run accepted a topology without start pages")
	}
}

func TestRunDeterministic(t *testing.T) {
	g := testTopology(t)
	p := testParams()
	p.Workers = 1
	r1, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 4 // parallelism must not change the outcome
	r2, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("stats differ across worker counts:\n%+v\n%+v", r1.Stats, r2.Stats)
	}
	if len(r1.Real) != len(r2.Real) {
		t.Fatalf("real session counts differ: %d vs %d", len(r1.Real), len(r2.Real))
	}
	for i := range r1.Real {
		if r1.Real[i].String() != r2.Real[i].String() {
			t.Fatalf("real session %d differs", i)
		}
	}
	p.Seed = 999
	r3, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Real) == len(r1.Real) && r3.Stats == r1.Stats {
		t.Error("different seeds produced identical runs")
	}
}

func TestRealSessionsSatisfyBothRules(t *testing.T) {
	g := testTopology(t)
	res, err := Run(g, testParams())
	if err != nil {
		t.Fatal(err)
	}
	rules := session.DefaultRules()
	if len(res.Real) == 0 {
		t.Fatal("no real sessions generated")
	}
	for _, s := range res.Real {
		if !s.SatisfiesTimestampOrdering(rules) {
			t.Fatalf("real session violates timestamp ordering: %v", s)
		}
		if !s.SatisfiesTopology(g) {
			t.Fatalf("real session violates topology rule: %v", s)
		}
	}
}

func TestRealSessionsStartAtStartPagesOrBacktracks(t *testing.T) {
	g := testTopology(t)
	res, err := Run(g, testParams())
	if err != nil {
		t.Fatal(err)
	}
	// A real session begins either at a designated start page (first
	// session, NIP jumps) or at a backtrack target (any previously visited
	// page). Verify at least the first session per agent starts at a start
	// page.
	seen := make(map[string]bool)
	for _, s := range res.Real {
		if seen[s.User] {
			continue
		}
		seen[s.User] = true
		if !slices.Contains(g.StartPages(), s.Entries[0].Page) {
			t.Fatalf("agent %s first session starts at non-start page %d",
				s.User, s.Entries[0].Page)
		}
	}
}

func TestServerStreamsAreStrictlyOrderedAndCacheFiltered(t *testing.T) {
	g := testTopology(t)
	res, err := Run(g, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Streams) == 0 {
		t.Fatal("no server streams")
	}
	for _, st := range res.Streams {
		pages := make(map[webgraph.PageID]bool)
		for i, e := range st.Entries {
			if i > 0 && !st.Entries[i-1].Time.Before(e.Time) {
				t.Fatalf("stream %s not strictly increasing at %d", st.User, i)
			}
			if pages[e.Page] {
				t.Fatalf("stream %s fetched page %d twice (cache model broken)",
					st.User, e.Page)
			}
			pages[e.Page] = true
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	g := testTopology(t)
	res, err := Run(g, testParams())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Agents != 200 {
		t.Errorf("agents = %d", s.Agents)
	}
	if s.ServerRequests+s.CacheHits != s.Navigations {
		t.Errorf("served %d + cache %d != navigations %d",
			s.ServerRequests, s.CacheHits, s.Navigations)
	}
	var streamed int
	for _, st := range res.Streams {
		streamed += len(st.Entries)
	}
	if streamed != s.ServerRequests {
		t.Errorf("stream entries %d != ServerRequests %d", streamed, s.ServerRequests)
	}
	if s.RealSessions != len(res.Real) {
		t.Errorf("RealSessions %d != len(Real) %d", s.RealSessions, len(res.Real))
	}
	var realNav int
	for _, r := range res.Real {
		realNav += r.Len()
	}
	// Every navigation lands in exactly one real session except the
	// backward cache walks, which belong to no session.
	walks := s.Navigations - realNav
	if walks < 0 {
		t.Errorf("real sessions hold %d entries, more than %d navigations",
			realNav, s.Navigations)
	}
	if !strings.Contains(s.String(), "agents=200") {
		t.Errorf("Stats.String = %q", s.String())
	}
}

func TestSTPControlsSessionLength(t *testing.T) {
	g := testTopology(t)
	short := testParams()
	short.STP = 0.5
	long := testParams()
	long.STP = 0.02
	rs, err := Run(g, short)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(g, long)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(r *Result) float64 {
		return float64(r.Stats.Navigations) / float64(r.Stats.RealSessions)
	}
	if avg(rs) >= avg(rl) {
		t.Errorf("high STP average session length %.2f not below low STP %.2f",
			avg(rs), avg(rl))
	}
}

func TestNIPZeroMeansNoJumps(t *testing.T) {
	g := testTopology(t)
	p := testParams()
	p.NIP = 0
	res, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NewInitialJumps != 0 {
		t.Errorf("NIP=0 but %d jumps", res.Stats.NewInitialJumps)
	}
	p2 := testParams()
	p2.LPP = 0
	res2, err := Run(g, p2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.BackwardMoves != 0 {
		t.Errorf("LPP=0 but %d backward moves", res2.Stats.BackwardMoves)
	}
}

func TestStayDistribution(t *testing.T) {
	g := testTopology(t)
	p := testParams()
	p.Agents = 300
	res, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	// Collect inter-request gaps inside real sessions; they are stay times.
	var sum, n float64
	for _, s := range res.Real {
		for i := 1; i < len(s.Entries); i++ {
			gap := s.Entries[i].Time.Sub(s.Entries[i-1].Time).Seconds()
			sum += gap
			n++
		}
	}
	if n < 100 {
		t.Fatalf("too few gaps (%v) to judge the distribution", n)
	}
	mean := sum / n
	want := meanStay.Seconds()
	if math.Abs(mean-want) > want*0.15 {
		t.Errorf("mean stay %.1fs deviates from %.1fs", mean, want)
	}
}

func TestLogRendersSortedCLF(t *testing.T) {
	g := testTopology(t)
	res, err := Run(g, testParams())
	if err != nil {
		t.Fatal(err)
	}
	records := res.Log(g)
	if len(records) != res.Stats.ServerRequests {
		t.Fatalf("log has %d records, want %d", len(records), res.Stats.ServerRequests)
	}
	for i := 1; i < len(records); i++ {
		if records[i].Time.Before(records[i-1].Time) {
			t.Fatalf("log not time-sorted at %d", i)
		}
	}
	r := records[0]
	if r.Method != "GET" || r.Status != 200 || r.Protocol != "HTTP/1.1" {
		t.Errorf("record fields: %+v", r)
	}
	if _, ok := g.PageByURI(r.URI); !ok {
		t.Errorf("log URI %q does not resolve against topology", r.URI)
	}
	if !strings.HasPrefix(r.Host, "10.") {
		t.Errorf("host %q not a synthetic agent IP", r.Host)
	}
}

func TestAgentIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 3000; i++ {
		id := AgentID(i)
		if seen[id] {
			t.Fatalf("duplicate agent id %q at %d", id, i)
		}
		seen[id] = true
	}
	if AgentID(259) != "10.0.1.3" {
		t.Errorf("AgentID(259) = %q", AgentID(259))
	}
	// Every octet value in every position, as fmt formats it.
	for i := 0; i < 1<<24; i += 65793 { // 1<<16 + 1<<8 + 1
		want := fmt.Sprintf("10.%d.%d.%d", (i>>16)&255, (i>>8)&255, i&255)
		if got := AgentID(i); got != want {
			t.Fatalf("AgentID(%d) = %q, want %q", i, got, want)
		}
		want = fmt.Sprintf("10.200.%d.%d", (i>>8)&255, i&255)
		if got := ProxyID(i); got != want {
			t.Fatalf("ProxyID(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestMaxRequestsCap(t *testing.T) {
	// A three-page ring has no dead end, so only the cap stops an agent.
	b := webgraph.NewBuilder(3)
	for u := webgraph.PageID(0); u < 3; u++ {
		if err := b.AddEdge(u, (u+1)%3); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.MarkStartPage(0); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	p := testParams()
	p.STP = 1e-9 // immortal agents: only the cap stops them
	p.NIP = 0
	p.LPP = 0
	p.Agents = 50
	res, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	perAgent := make(map[string]int)
	for _, s := range res.Real {
		perAgent[s.User] += s.Len()
	}
	for u, n := range perAgent {
		if n > maxRequests {
			t.Errorf("agent %s made %d navigations, cap %d", u, n, maxRequests)
		}
	}
	if res.Stats.RequestCapHits != p.Agents {
		t.Errorf("cap hit by %d of %d agents with STP=1e-9", res.Stats.RequestCapHits, p.Agents)
	}
}

// A page with no out-link ends the agent: GenerateTopology can leave one,
// since its reachability pass adds in-links only. Start page 0 links to page
// 1, which links nowhere; with LPP = NIP = 0 and an STP that never fires,
// every agent reads both pages and stops at the sink, not at the cap.
func TestDeadEndStopsAgent(t *testing.T) {
	b := webgraph.NewBuilder(2)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.MarkStartPage(0); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	p := testParams()
	p.STP, p.NIP, p.LPP = 1e-9, 0, 0
	p.Agents = 50
	res, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DeadEnds != p.Agents || res.Stats.RequestCapHits != 0 {
		t.Errorf("DeadEnds %d, RequestCapHits %d for %d agents: want every agent stopped by the sink",
			res.Stats.DeadEnds, res.Stats.RequestCapHits, p.Agents)
	}
	if len(res.Real) != p.Agents {
		t.Fatalf("%d real sessions for %d agents", len(res.Real), p.Agents)
	}
	for _, r := range res.Real {
		if r.Len() != 2 {
			t.Errorf("%s: real session of %d pages, want 2 (the start page and the sink)", r.User, r.Len())
		}
	}
}

func TestBehaviorCountsRoughlyMatchProbabilities(t *testing.T) {
	g := testTopology(t)
	p := testParams()
	p.Agents = 500
	res, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	// Terminations per agent ≈ 1 (every agent ends once, mostly via STP).
	ended := res.Stats.Terminations + res.Stats.DeadEnds + res.Stats.RequestCapHits
	if ended != p.Agents {
		t.Errorf("agents ended %d times, want exactly %d", ended, p.Agents)
	}
	// NIP fires on ~NIP*(1-STP) of non-terminal steps; just check both
	// behaviors fired a plausible number of times.
	if res.Stats.NewInitialJumps == 0 || res.Stats.BackwardMoves == 0 {
		t.Errorf("behavior counts implausible: %+v", res.Stats)
	}
}

func BenchmarkRunPaperScale(b *testing.B) {
	g, err := webgraph.GenerateTopology(webgraph.PaperTopology(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	p := PaperParams()
	p.Agents = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestProxySharingMergesStreams(t *testing.T) {
	g := testTopology(t)
	p := testParams()
	p.ProxyFraction = 0.5
	p.ProxySize = 4
	res, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	// Some users must be proxies with merged (larger) streams.
	proxies := 0
	for i, st := range res.Streams {
		if strings.HasPrefix(st.User, "10.200.") {
			proxies++
			for j := 1; j < len(st.Entries); j++ {
				if st.Entries[j].Time.Before(st.Entries[j-1].Time) {
					t.Fatalf("merged stream %s not time-sorted at %d", st.User, j)
				}
			}
		}
		if len(res.Referrers[i]) != len(st.Entries) {
			t.Fatalf("referrers misaligned for %s", st.User)
		}
	}
	if proxies == 0 {
		t.Fatal("no proxy users despite ProxyFraction=0.5")
	}
	// Ground truth sessions carry the log-visible identity.
	userSet := make(map[string]bool)
	for _, st := range res.Streams {
		userSet[st.User] = true
	}
	for _, r := range res.Real {
		if !userSet[r.User] && r.Len() > 0 {
			// Agents whose every request was cache-served have no stream;
			// their first request is always served, so this cannot happen.
			t.Fatalf("real session user %q has no stream", r.User)
		}
	}
	// Determinism across worker counts still holds with proxies.
	p.Workers = 3
	res2, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Streams) != len(res.Streams) {
		t.Fatalf("proxy assignment not deterministic: %d vs %d streams",
			len(res2.Streams), len(res.Streams))
	}
}

func TestProxyValidation(t *testing.T) {
	p := testParams()
	p.ProxyFraction = -0.1
	if err := p.Validate(); err == nil {
		t.Error("negative proxy fraction accepted")
	}
	p = testParams()
	p.ProxyFraction = 1.5
	if err := p.Validate(); err == nil {
		t.Error("proxy fraction above 1 accepted")
	}
	p = testParams()
	p.ProxySize = -1
	if err := p.Validate(); err == nil {
		t.Error("negative proxy size accepted")
	}
}

func TestProxySharingHurtsAccuracyPremise(t *testing.T) {
	// Not an accuracy assertion (that lives in the ablation bench) — just
	// that proxy streams are strictly fewer and longer than user streams.
	g := testTopology(t)
	clean := testParams()
	shared := testParams()
	shared.ProxyFraction = 0.8
	shared.ProxySize = 10
	rc, err := Run(g, clean)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(g, shared)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Streams) >= len(rc.Streams) {
		t.Errorf("proxy run has %d streams, clean %d", len(rs.Streams), len(rc.Streams))
	}
}

func TestCachedStartJumpsAtHighNIP(t *testing.T) {
	g := testTopology(t)
	p := testParams()
	p.NIP = 0.9
	p.STP = 0.02 // long runs exhaust the fresh start pages
	res, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CachedStartJumps == 0 {
		t.Error("no cached start jumps at NIP=0.9 with long runs")
	}
	// A cached jump opens a real session whose first page never reaches the
	// log at that moment: total real entries must exceed served requests.
	var realNav int
	for _, r := range res.Real {
		realNav += r.Len()
	}
	if realNav <= res.Stats.ServerRequests {
		t.Errorf("real entries %d not above served %d despite cache hits",
			realNav, res.Stats.ServerRequests)
	}
}

// referenceRun is Run read naively: agents one after another, each with a
// freshly built source and scratch, results grown by append. Run's shared
// per-worker generator and presized slices must not be observable.
func referenceRun(g *webgraph.Graph, p Params) *Result {
	p = p.withDefaults()
	users := assignUsers(p)
	res := &Result{}
	res.Stats.Agents = p.Agents
	for i := 0; i < p.Agents; i++ {
		rng := rand.New(rand.NewSource(mixSeed(p.Seed, int64(i))))
		jitter := time.Duration(rng.Int63n(int64(p.StartWindow))).Truncate(time.Second)
		scr := &agentScratch{visited: make([]bool, g.NumPages())}
		o := runAgent(g, p, AgentID(i), origin.Add(jitter), rng, scr, agentOutcome{})
		for s := range o.real {
			o.real[s].User = users[i]
		}
		res.Real = append(res.Real, o.real...)
		if len(o.served) > 0 {
			res.Streams = append(res.Streams, session.Stream{User: users[i], Entries: o.served})
			res.Referrers = append(res.Referrers, o.refs)
		}
		res.Stats.add(o.stats)
	}
	res.mergeSharedUsers()
	return res
}

func TestRunMatchesFreshSourcePerAgent(t *testing.T) {
	g := testTopology(t)
	for _, proxy := range []float64{0, 0.4} {
		p := testParams()
		p.Seed = 7
		p.ProxyFraction = proxy
		p.ProxySize = 3
		want := referenceRun(g, p)
		if len(want.Real) == 0 || len(want.Streams) == 0 {
			t.Fatalf("proxy=%v: degenerate reference: %v", proxy, want.Stats)
		}
		for _, workers := range []int{1, 2, 5} {
			p.Workers = workers
			got, err := Run(g, p)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != want.Stats {
				t.Errorf("proxy=%v workers=%d: Stats %+v, want %+v", proxy, workers, got.Stats, want.Stats)
			}
			if !reflect.DeepEqual(got.Real, want.Real) {
				t.Errorf("proxy=%v workers=%d: Real differs", proxy, workers)
			}
			if !reflect.DeepEqual(got.Streams, want.Streams) {
				t.Errorf("proxy=%v workers=%d: Streams differ", proxy, workers)
			}
			if !reflect.DeepEqual(got.Referrers, want.Referrers) {
				t.Errorf("proxy=%v workers=%d: Referrers differ", proxy, workers)
			}
		}
	}
}

// paperSite is Table 5's 300-page site, topology seed 2006.
func paperSite(t testing.TB) *webgraph.Graph {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.PaperTopology(), rand.New(rand.NewSource(2006)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runDigest hashes a Result: the real sessions as session.WriteAll writes
// them, then one line per stream (its label, then page@UnixNano per entry)
// and one per referrer row.
func runDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	if err := session.WriteAll(h, res.Real); err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Streams {
		fmt.Fprint(h, st.User)
		for _, e := range st.Entries {
			fmt.Fprintf(h, " %d@%d", e.Page, e.Time.UnixNano())
		}
		fmt.Fprintln(h)
		for _, r := range res.Referrers[i] {
			fmt.Fprintf(h, " %d", r)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Run's output is pinned byte for byte: 2,000 Table 5 agents on the paper's
// site at seed 3, without proxies and with half the agents behind
// three-agent proxies. referenceRun runs the same runAgent as Run, so it
// cannot see a change of draw order inside the agent loop; these hashes can.
func TestRunBytesPinned(t *testing.T) {
	g := paperSite(t)
	for _, c := range []struct {
		fraction float64
		want     string
	}{
		{0, "51da47451117d360f825953106c0caf1db8120dac581eb0af6ec88e232e2bb11"},
		{0.5, "0f28aba7b2f2ba36c06909b65b233539f5926f2546f40e6711beb535d0f0ce69"},
	} {
		p := PaperParams()
		p.Agents, p.Seed = 2000, 3
		p.ProxyFraction, p.ProxySize = c.fraction, 3
		res, err := Run(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := runDigest(t, res); got != c.want {
			t.Errorf("proxies %v×3: Run's output hashes to %s, pinned %s", c.fraction, got, c.want)
		}
	}
}

// Run's workers write agents back to back into shared chunks, so every
// slice the Result holds must end where its user's data ends: after one
// element is appended to every stream, referrer row and real session (the
// appended slices dropped), the Result still deep-equals a copy taken
// before.
func TestRunWindowsDoNotAlias(t *testing.T) {
	g := testTopology(t)
	spoilt := session.Entry{Page: webgraph.InvalidPage, Time: time.Unix(1, 0)}
	for _, fraction := range []float64{0, 0.4} {
		for _, workers := range []int{1, 2, 5} {
			p := testParams()
			p.ProxyFraction, p.ProxySize, p.Workers = fraction, 3, workers
			res, err := Run(g, p)
			if err != nil {
				t.Fatal(err)
			}
			want := copyResult(res)
			for i := range res.Streams {
				_ = append(res.Streams[i].Entries, spoilt)
				_ = append(res.Referrers[i], webgraph.InvalidPage-1)
			}
			for k := range res.Real {
				_ = append(res.Real[k].Entries, spoilt)
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("proxies %v×3 workers=%d: an append to one user's slice changed another user's data", fraction, workers)
			}
		}
	}
}

// copyResult deep-copies r.
func copyResult(r *Result) *Result {
	c := &Result{
		Real:      slices.Clone(r.Real),
		Streams:   slices.Clone(r.Streams),
		Referrers: slices.Clone(r.Referrers),
		Stats:     r.Stats,
	}
	for k := range c.Real {
		c.Real[k].Entries = slices.Clone(c.Real[k].Entries)
	}
	for i := range c.Streams {
		c.Streams[i].Entries = slices.Clone(c.Streams[i].Entries)
		c.Referrers[i] = slices.Clone(c.Referrers[i])
	}
	return c
}
