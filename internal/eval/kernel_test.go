package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// The references below are the metrics read literally — a materialised
// candidate set, one Pages()-per-probe capture test per (real, candidate)
// pair, a textbook recursive matching, a sort for the median — and share no
// code with the kernel.

func naiveCaptures(h, r session.Session) bool {
	return h.User == r.User && session.ContainsPages(h.Pages(), r.Pages())
}

func naiveExists(real, cands []session.Session) int {
	n := 0
	for _, r := range real {
		for _, h := range cands {
			if naiveCaptures(h, r) {
				n++
				break
			}
		}
	}
	return n
}

func naiveMatched(real, cands []session.Session) int {
	owner := make([]int, len(cands)) // candidate -> real, -1 free
	for j := range owner {
		owner[j] = -1
	}
	var try func(i int, seen []bool) bool
	try = func(i int, seen []bool) bool {
		for j := range cands {
			if seen[j] || !naiveCaptures(cands[j], real[i]) {
				continue
			}
			seen[j] = true
			if owner[j] < 0 || try(owner[j], seen) {
				owner[j] = i
				return true
			}
		}
		return false
	}
	n := 0
	for i := range real {
		if try(i, make([]bool, len(cands))) {
			n++
		}
	}
	return n
}

func naiveStats(sessions []session.Session) SessionStats {
	st := SessionStats{Sessions: len(sessions)}
	if len(sessions) == 0 {
		return st
	}
	lengths := make([]int, len(sessions))
	total := 0
	for i, s := range sessions {
		lengths[i] = s.Len()
		total += s.Len()
	}
	sort.Ints(lengths)
	st.MaxLength = lengths[len(lengths)-1]
	st.MeanLength = float64(total) / float64(len(sessions))
	mid := len(lengths) / 2
	if len(lengths)%2 == 1 {
		st.MedianLength = float64(lengths[mid])
	} else {
		st.MedianLength = float64(lengths[mid-1]+lengths[mid]) / 2
	}
	return st
}

// naivePoint is the old chain: materialise every heuristic's candidates for
// the whole population, then score the set as a whole.
func naivePoint(t *testing.T, g *webgraph.Graph, cfg RunConfig) *PointResult {
	t.Helper()
	res, err := simulator.Run(g, cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	point := &PointResult{
		Matched:       make(map[string]Accuracy),
		Exists:        make(map[string]Accuracy),
		Reconstructed: make(map[string]SessionStats),
		RealSessions:  len(res.Real),
	}
	for _, h := range DefaultHeuristics(g) {
		cands := heuristics.ReconstructAll(h, res.Streams)
		point.Matched[h.Name()] = Accuracy{Real: len(res.Real), Captured: naiveMatched(res.Real, cands)}
		point.Exists[h.Name()] = Accuracy{Real: len(res.Real), Captured: naiveExists(res.Real, cands)}
		point.Reconstructed[h.Name()] = naiveStats(cands)
	}
	return point
}

// The fused per-user pass must give what the materialise-then-score chain
// gave, on whatever the simulator produces: random sites, seeds and
// behaviour draws, with and without proxy-merged users.
func TestEvaluatePointMatchesNaiveChain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		cfg := RunConfig{
			Topology: webgraph.TopologyConfig{
				Pages: 30 + rng.Intn(60), AvgOutDegree: 3 + 5*rng.Float64(),
				StartPageFraction: 0.05 + 0.1*rng.Float64(),
				Model:             webgraph.ModelUniform, EnsureReachable: true,
			},
			TopologySeed: rng.Int63(),
			Params:       simulator.PaperParams(),
		}
		cfg.Params.Agents = 30 + rng.Intn(60)
		cfg.Params.Seed = rng.Int63()
		cfg.Params.STP = 0.02 + 0.18*rng.Float64()
		cfg.Params.LPP = 0.9 * rng.Float64()
		cfg.Params.NIP = 0.9 * rng.Float64()
		if trial%2 == 1 {
			cfg.Params.ProxyFraction = 0.5
			cfg.Params.ProxySize = 2 + rng.Intn(4)
		}
		checkPointAgainstNaive(t, fmt.Sprintf("trial %d", trial), cfg)
	}
}

// heur3 has no time limit: at the paper's scale with persistent agents its
// path completion yields sessions thousands of pages long, the size at which
// the histogram and the per-user page arena are stressed.
func TestEvaluatePointMatchesNaiveChainLongSessions(t *testing.T) {
	cfg := PaperDefaults()
	cfg.Params.Agents = 100
	cfg.Params.STP = 0.01
	cfg.Params.LPP = 0.9
	point := checkPointAgainstNaive(t, "long", cfg)
	if got := point.Reconstructed["heur3"].MaxLength; got < 1000 {
		t.Errorf("heur3 max session length %d: the workload no longer reaches 1000 pages", got)
	}
}

func checkPointAgainstNaive(t *testing.T, what string, cfg RunConfig) *PointResult {
	t.Helper()
	g, err := Topology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := naivePoint(t, g, cfg)
	if want.RealSessions == 0 || want.Exists["heur4"].Captured == 0 {
		t.Fatalf("%s: degenerate workload: %+v", what, want)
	}
	got, err := EvaluatePointOn(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %+v\nwant %+v", what, got, want)
	}
	return want
}

// scripted replays fixed candidate sets, so the loop can be driven through
// shapes no simulated run produces.
type scripted map[string][]session.Session

func (scripted) Name() string { return "scripted" }

func (h scripted) Reconstruct(st session.Stream) []session.Session { return h[st.User] }

// Random synthetic populations over a three-page alphabet (so captures and
// contested matchings are common) with every awkward shape: users with real
// sessions but no stream, streams of users with no real session, empty
// candidate sets, empty sessions, real sessions of one user scattered through
// the slice. The stream loop and the three exported feeders must all agree
// with the naive readings.
func TestScoreStreamsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	random := func(user string, n int) []session.Session {
		out := make([]session.Session, n)
		for i := range out {
			out[i].User = user
			for k := rng.Intn(5); k > 0; k-- {
				out[i].Entries = append(out[i].Entries, session.Entry{Page: webgraph.PageID(rng.Intn(3))})
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		var real, cands []session.Session
		var streams []session.Stream
		h := scripted{}
		for u, users := 0, 1+rng.Intn(6); u < users; u++ {
			user := fmt.Sprintf("u%d", u)
			if rng.Intn(4) > 0 {
				real = append(real, random(user, 1+rng.Intn(6))...)
			}
			if rng.Intn(4) > 0 {
				streams = append(streams, session.Stream{User: user})
				if rng.Intn(5) > 0 {
					h[user] = random(user, rng.Intn(7))
				}
				cands = append(cands, h[user]...)
			}
		}
		rng.Shuffle(len(real), func(i, j int) { real[i], real[j] = real[j], real[i] })
		wantExists, wantMatched := naiveExists(real, cands), naiveMatched(real, cands)
		wantStats := naiveStats(cands)
		got := indexSessions(real).scoreStreams(h, streams)
		if got.exists != wantExists || got.matched != wantMatched || got.stats() != wantStats {
			t.Fatalf("trial %d: streams give exists=%d matched=%d %v, naive %d %d %v\nreal %v\ncands %v",
				trial, got.exists, got.matched, got.stats(), wantExists, wantMatched, wantStats, real, cands)
		}
		if got := ScoreMatched(real, cands); got != (Accuracy{Real: len(real), Captured: wantMatched}) {
			t.Fatalf("trial %d: ScoreMatched = %v, naive %d", trial, got, wantMatched)
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		if got := Score(real, cands); got != (Accuracy{Real: len(real), Captured: wantExists}) {
			t.Fatalf("trial %d: Score = %v, naive %d", trial, got, wantExists)
		}
		if got := Summarize(cands); got != wantStats {
			t.Fatalf("trial %d: Summarize = %v, naive %v", trial, got, wantStats)
		}
	}
}

// The histogram median is the sort's median for odd and even counts, ties
// and gaps included.
func TestHistogramMedian(t *testing.T) {
	for _, lengths := range [][]int{
		{4}, {1, 2}, {1, 9}, {2, 2, 7}, {1, 2, 3, 4}, {5, 5, 5, 5}, {1, 1, 8, 9}, {0, 3, 3, 4, 1000}, {0, 0},
	} {
		sessions := make([]session.Session, len(lengths))
		for i, n := range lengths {
			sessions[i].Entries = make([]session.Entry, n)
		}
		if got, want := Summarize(sessions), naiveStats(sessions); got != want {
			t.Errorf("lengths %v: %v, want %v", lengths, got, want)
		}
	}
	if got := Summarize(nil); got != (SessionStats{}) {
		t.Errorf("no sessions: %v", got)
	}
}

// kernelWorkload is one simulated population with its real-session index.
func kernelWorkload(tb testing.TB, agents int) (*webgraph.Graph, *simulator.Result, *sessionIndex) {
	tb.Helper()
	cfg := PaperDefaults()
	cfg.Params.Agents = agents
	g, err := Topology(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := simulator.Run(g, cfg.Params)
	if err != nil {
		tb.Fatal(err)
	}
	return g, res, indexSessions(res.Real)
}

// Once a scorer's scratch has grown to its population, reconstructing and
// scoring a user allocates nothing, for any of the paper's heuristics.
func TestScoreStreamsSteadyStateAllocs(t *testing.T) {
	g, res, ix := kernelWorkload(t, 60)
	for _, h := range DefaultHeuristics(g) {
		var s scorer
		reconstruct, release := heuristics.Lend(h)
		pass := func() {
			for _, st := range res.Streams {
				s.candidates(ix, st.User, reconstruct(st))
				release()
			}
		}
		pass()
		pass() // the arenas settle on one block after the first rewinds
		if n := testing.AllocsPerRun(5, pass); n != 0 {
			t.Errorf("%s: %v allocations per pass over %d users", h.Name(), n, len(res.Streams))
		}
	}
}

// BenchmarkScorePoint measures the kernel alone: the four heuristics'
// reconstruct → capture → match passes over a prebuilt point (streams and
// real-session index), sequential.
func BenchmarkScorePoint(b *testing.B) {
	g, res, ix := kernelWorkload(b, 250)
	hs := DefaultHeuristics(g)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	matched := 0
	for i := 0; i < b.N; i++ {
		for _, h := range hs {
			matched += ix.scoreStreams(h, res.Streams).matched
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if matched == 0 {
		b.Fatal("nothing matched")
	}
	users := float64(b.N * len(hs) * len(res.Streams))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/users, "ns/user")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/users, "allocs/user")
}
