package simulator

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Each hands out, label by label, exactly what Run returns: the same stream,
// referrer row and real sessions (in Run's order) for every log identity, and
// the same Stats. Proxy groups come from every size 2–5, and a population
// whose last group is short; GOMAXPROCS (the -cpu flag) sets the workers.
func TestEachMatchesRun(t *testing.T) {
	g := testTopology(t)
	type shape struct {
		agents   int
		fraction float64
		size     int
	}
	shapes := []shape{{200, 0, 0}}
	for size := 2; size <= 5; size++ {
		shapes = append(shapes, shape{200, 0.5, size})
	}
	// Every agent proxied: 203 = 40×5 + 3 and 201 = 50×4 + 1 leave the last
	// group short.
	shapes = append(shapes, shape{203, 1, 5}, shape{201, 1, 4})
	for _, s := range shapes {
		p := testParams()
		p.Agents, p.ProxyFraction, p.ProxySize = s.agents, s.fraction, s.size
		what := fmt.Sprintf("agents=%d proxies=%v×%d", s.agents, s.fraction, s.size)
		if labels := eachAgainstRun(t, what, g, p, false); s.fraction > 0 && labels >= s.agents {
			t.Errorf("%s: %d labels for %d agents: nothing was shared", what, labels, s.agents)
		}
	}
}

// Each reuses a User's slices for later users, so a visit that writes into
// them must not reach any user handed over after it: with every Page, Time
// and Refs element overwritten once it is copied, each user still arrives
// equal to Run's, with and without proxy-merged users.
func TestEachRecycledBuffersDoNotLeak(t *testing.T) {
	g := testTopology(t)
	for _, fraction := range []float64{0, 0.5} {
		p := testParams()
		p.ProxyFraction, p.ProxySize = fraction, 3
		for _, workers := range []int{1, 2} {
			p.Workers = workers
			eachAgainstRun(t, fmt.Sprintf("proxies=%v×3 workers=%d", fraction, workers), g, p, true)
		}
	}
}

// eachAgainstRun runs Each over (g, p), deep-copying every user in its visit
// and then, when spoil is set, overwriting every entry and referrer it was
// handed. It checks the copies and the Stats against Run's and returns how
// many labels were visited.
func eachAgainstRun(t *testing.T, what string, g *webgraph.Graph, p Params, spoil bool) int {
	t.Helper()
	want, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	spoilt := session.Entry{Page: webgraph.InvalidPage, Time: time.Unix(1, 0)}
	got := make(map[string]*User)
	stats, err := Each(g, p, func(u *User) {
		if got[u.Label] != nil {
			t.Fatalf("%s: label %s visited twice", what, u.Label)
		}
		got[u.Label] = copyUser(u)
		if !spoil {
			return
		}
		for i := range u.Stream {
			u.Stream[i], u.Refs[i] = spoilt, webgraph.InvalidPage-1
		}
		for _, r := range u.Real {
			for i := range r.Entries {
				r.Entries[i] = spoilt
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats != want.Stats {
		t.Errorf("%s: Stats %+v, Run's %+v", what, stats, want.Stats)
	}
	if len(got) != len(want.Streams) {
		t.Fatalf("%s: %d users visited, Run has %d streams", what, len(got), len(want.Streams))
	}
	real := make(map[string][]session.Session)
	for _, r := range want.Real {
		real[r.User] = append(real[r.User], r)
	}
	for i, st := range want.Streams {
		u := got[st.User]
		if u == nil {
			t.Fatalf("%s: label %s never visited", what, st.User)
		}
		if !reflect.DeepEqual(u.Stream, st.Entries) || !reflect.DeepEqual(u.Refs, want.Referrers[i]) {
			t.Errorf("%s: label %s: stream or referrers differ from Run's", what, st.User)
		}
		if !reflect.DeepEqual(u.Real, real[st.User]) {
			t.Errorf("%s: label %s: real sessions differ from Run's", what, st.User)
		}
	}
	return len(got)
}

// copyUser deep-copies u: a User is valid only during its visit.
func copyUser(u *User) *User {
	c := &User{
		Label:  u.Label,
		Stream: slices.Clone(u.Stream),
		Refs:   slices.Clone(u.Refs),
		Real:   slices.Clone(u.Real),
	}
	for i := range c.Real {
		c.Real[i].Entries = slices.Clone(c.Real[i].Entries)
	}
	return c
}

// A run streamed through Each holds a few users per worker, not its
// population: read inside the last visit, the live heap is under a quarter of
// what Run's Result holds for the same parameters.
func TestEachHoldsNoPopulation(t *testing.T) {
	g := testTopology(t)
	p := testParams()
	p.Agents = 20000
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := live()
	res, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	held := live() - base
	labels := len(res.Streams)
	runtime.KeepAlive(res)
	res = nil

	base = live()
	var inLast uint64
	visited := 0
	if _, err := Each(g, p, func(*User) {
		if visited++; visited == labels {
			if h := live(); h > base {
				inLast = h - base
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if visited != labels {
		t.Fatalf("Each visited %d users, Run has %d streams", visited, labels)
	}
	if inLast >= held/4 {
		t.Errorf("Each holds %d B in its last visit, Run's Result %d B: not under a quarter", inLast, held)
	}
	t.Logf("Run's Result %d B; Each in its last visit %d B", held, inLast)
}

// Each writes every agent into recycled outcome buffers: past the first few
// agents per worker, an agent costs one allocation, its label from
// assignUsers (a proxy label is made once per group). Measured at the
// paper's parameters on the paper's site, with no proxies, half and every
// agent behind four-agent proxies, a second thousand agents may add that
// and a constant for buffers still growing to a longer agent or a larger
// group, not the ≈ 22.6 allocations per agent Run made while it built each
// agent's slices afresh, nor outcomes dropped while a group waits.
func TestEachAllocsPerAgent(t *testing.T) {
	allocsPerAgent(t, "Each", func(g *webgraph.Graph, p Params) error {
		_, err := Each(g, p, func(*User) {})
		return err
	})
}

// Run writes its agents into per-worker chunk arenas and its workers store
// each outcome themselves: past the first chunk per worker, an agent costs
// one allocation, its label from assignUsers, as in Each, with no proxies,
// half and every agent behind four-agent proxies (merging a shared label
// allocates per run, not per group). Building each agent's slices afresh
// made 22.6 allocations per agent without proxies, 26.5 at half and 24.5
// with every agent proxied.
func TestRunAllocsPerAgent(t *testing.T) {
	allocsPerAgent(t, "Run", func(g *webgraph.Graph, p Params) error {
		_, err := Run(g, p)
		return err
	})
}

// allocsPerAgent fails t unless sim, on the paper's site with PaperParams
// and 2 workers, makes at most one allocation per agent, plus a constant,
// from 1,000 to 2,000 agents, with no proxies, half and every agent behind
// four-agent proxies.
func allocsPerAgent(t *testing.T, name string, sim func(*webgraph.Graph, Params) error) {
	g := paperSite(t)
	for _, fraction := range []float64{0, 0.5, 1} {
		allocs := func(agents int) float64 {
			p := PaperParams()
			p.Agents, p.Workers = agents, 2
			p.ProxyFraction, p.ProxySize = fraction, 4
			return testing.AllocsPerRun(3, func() {
				if err := sim(g, p); err != nil {
					t.Fatal(err)
				}
			})
		}
		const slack = 64
		small, large := allocs(1000), allocs(2000)
		if extra := large - small; extra > 1000+slack {
			t.Errorf("%s, proxies %v×4: %v allocations at 1,000 agents, %v at 2,000: %.2f per extra agent, want at most 1 plus %d in all",
				name, fraction, small, large, extra/1000, slack)
		}
		t.Logf("%s, proxies %v×4: %v allocations at 1,000 agents, %v at 2,000", name, fraction, small, large)
	}
}
