package simulator

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"smartsra/internal/session"
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
		want, err := Run(g, p)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]*User)
		stats, err := Each(g, p, func(u *User) {
			if got[u.Label] != nil {
				t.Fatalf("%s: label %s visited twice", what, u.Label)
			}
			got[u.Label] = u
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
		if s.fraction > 0 && len(got) >= s.agents {
			t.Errorf("%s: %d labels for %d agents: nothing was shared", what, len(got), s.agents)
		}
	}
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
