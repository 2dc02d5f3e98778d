// Package smartsra's root benchmarks regenerate every table and figure of
// the paper's evaluation, plus the ablations DESIGN.md calls out. Each
// Benchmark{Table,Figure}N corresponds to the same-numbered exhibit; custom
// metrics (accuracy percentages) are attached via b.ReportMetric so
// `go test -bench=. -benchmem` prints the series alongside timing.
//
// Benchmarks run scaled-down workloads (hundreds of agents per point) so the
// whole suite finishes in seconds; cmd/evaluate regenerates the figures at
// the paper's full 10000-agent scale.
package smartsra

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"smartsra/internal/eval"
	"smartsra/internal/heuristics"
	"smartsra/internal/referrer"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

var benchT0 = time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)

// table1Stream rebuilds the request sequence of Table 1 over Figure 1.
func table1Stream(ids map[string]webgraph.PageID) session.Stream {
	names := []string{"P1", "P20", "P13", "P49", "P34", "P23"}
	minutes := []int{0, 6, 15, 29, 32, 47}
	st := session.Stream{User: "agent"}
	for i, n := range names {
		st.Entries = append(st.Entries, session.Entry{
			Page: ids[n], Time: benchT0.Add(time.Duration(minutes[i]) * time.Minute),
		})
	}
	return st
}

// table3Stream rebuilds the request sequence of Table 3 over Figure 1.
func table3Stream(ids map[string]webgraph.PageID) session.Stream {
	names := []string{"P1", "P20", "P13", "P49", "P34", "P23"}
	minutes := []int{0, 6, 9, 12, 14, 15}
	st := session.Stream{User: "agent"}
	for i, n := range names {
		st.Entries = append(st.Entries, session.Entry{
			Page: ids[n], Time: benchT0.Add(time.Duration(minutes[i]) * time.Minute),
		})
	}
	return st
}

// BenchmarkTable1TimeHeuristics regenerates Table 1: the two time-oriented
// splits of the example request sequence (δ ⇒ 2 sessions, ρ ⇒ 3 sessions).
func BenchmarkTable1TimeHeuristics(b *testing.B) {
	_, ids := webgraph.PaperFigure1()
	st := table1Stream(ids)
	h1, h2 := heuristics.NewTimeTotal(), heuristics.NewTimeGap()
	b.ReportAllocs()
	var n1, n2 int
	for i := 0; i < b.N; i++ {
		n1 = len(heuristics.ReconstructAll(h1, []session.Stream{st}))
		n2 = len(heuristics.ReconstructAll(h2, []session.Stream{st}))
	}
	b.ReportMetric(float64(n1), "heur1-sessions")
	b.ReportMetric(float64(n2), "heur2-sessions")
}

// BenchmarkTable2Navigation regenerates Table 2: the navigation-oriented
// heuristic's path-completed session over the example sequence.
func BenchmarkTable2Navigation(b *testing.B) {
	g, ids := webgraph.PaperFigure1()
	st := table1Stream(ids)
	h := heuristics.NewNavigation(g)
	b.ReportAllocs()
	var length int
	for i := 0; i < b.N; i++ {
		out := heuristics.ReconstructAll(h, []session.Stream{st})
		length = out[0].Len()
	}
	b.ReportMetric(float64(length), "session-length") // Table 2: 8 entries
}

// BenchmarkTable4SmartSRA regenerates Tables 3-4: Smart-SRA's three maximal
// sessions from the Phase-1 candidate.
func BenchmarkTable4SmartSRA(b *testing.B) {
	g, ids := webgraph.PaperFigure1()
	st := table3Stream(ids)
	h := heuristics.NewSmartSRA(g)
	b.ReportAllocs()
	var sessions int
	for i := 0; i < b.N; i++ {
		sessions = len(heuristics.ReconstructAll(h, []session.Stream{st}))
	}
	b.ReportMetric(float64(sessions), "maximal-sessions") // Table 4: 3
}

// benchConfig returns the Table 5 evaluation config scaled to bench speed.
func benchConfig() eval.RunConfig {
	cfg := eval.PaperDefaults()
	cfg.Params.Agents = 250
	return cfg
}

// benchSweep runs a scaled-down figure sweep once per iteration and attaches
// each heuristic's mean matched accuracy across the sweep as a metric.
func benchSweep(b *testing.B, exp eval.Experiment) {
	b.Helper()
	var last *eval.SweepResult
	for i := 0; i < b.N; i++ {
		res, err := exp.RunWith(eval.RunOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, h := range eval.HeuristicNames {
		sum := 0.0
		for _, p := range last.Points {
			sum += p.Matched[h].Percent()
		}
		b.ReportMetric(sum/float64(len(last.Points)), h+"-acc%")
	}
	shape := last.CheckShape()
	boolMetric := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	b.ReportMetric(boolMetric(shape.SmartSRAAlwaysBeatsTime), "beats-time")
}

// BenchmarkFigure8AccuracyVsSTP regenerates Figure 8 (accuracy vs STP) on a
// reduced sweep: STP ∈ {1%, 10%, 20%}.
func BenchmarkFigure8AccuracyVsSTP(b *testing.B) {
	exp := eval.Figure8(benchConfig())
	exp.Values = []float64{0.01, 0.10, 0.20}
	benchSweep(b, exp)
}

// BenchmarkFigure9AccuracyVsLPP regenerates Figure 9 (accuracy vs LPP) on a
// reduced sweep: LPP ∈ {0%, 50%, 90%}.
func BenchmarkFigure9AccuracyVsLPP(b *testing.B) {
	exp := eval.Figure9(benchConfig())
	exp.Values = []float64{0, 0.50, 0.90}
	benchSweep(b, exp)
}

// BenchmarkFigure10AccuracyVsNIP regenerates Figure 10 (accuracy vs NIP) on
// a reduced sweep: NIP ∈ {0%, 50%, 90%}.
func BenchmarkFigure10AccuracyVsNIP(b *testing.B) {
	exp := eval.Figure10(benchConfig())
	exp.Values = []float64{0, 0.50, 0.90}
	benchSweep(b, exp)
}

// BenchmarkSweepSequential runs a reduced Figure 8 sweep one point at a
// time — the wall-clock baseline for BenchmarkSweepParallel.
func BenchmarkSweepSequential(b *testing.B) {
	exp := eval.Figure8(benchConfig())
	exp.Values = exp.Values[:8]
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunWith(eval.RunOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the same sweep with its points on a pool of
// increasing width — the harness's only concurrency besides the simulator's
// agents, which get what the pool leaves of the budget. On >=4 cores the
// all-cores variant should show a >=2x wall-clock speedup over
// BenchmarkSweepSequential while producing bit-identical PointResults
// (pinned by TestRunWithMatchesSequential).
func BenchmarkSweepParallel(b *testing.B) {
	exp := eval.Figure8(benchConfig())
	exp.Values = exp.Values[:8]
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.RunWith(eval.RunOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWorkload builds one simulated workload for the ablation benches.
func benchWorkload(b *testing.B, topo webgraph.TopologyConfig, params simulator.Params) (*webgraph.Graph, *simulator.Result) {
	b.Helper()
	g, err := webgraph.GenerateTopology(topo, rand.New(rand.NewSource(2006)))
	if err != nil {
		b.Fatal(err)
	}
	res, err := simulator.Run(g, params)
	if err != nil {
		b.Fatal(err)
	}
	return g, res
}

// BenchmarkAblationStartPages sweeps the start-page fraction, the one
// Table 5 parameter the paper leaves unspecified (DESIGN.md).
func BenchmarkAblationStartPages(b *testing.B) {
	for _, frac := range []float64{0.01, 0.05, 0.20} {
		b.Run(fmt.Sprintf("frac=%.2f", frac), func(b *testing.B) {
			topo := webgraph.PaperTopology()
			topo.StartPageFraction = frac
			params := simulator.PaperParams()
			params.Agents = 250
			g, res := benchWorkload(b, topo, params)
			h := heuristics.NewSmartSRA(g)
			var acc eval.Accuracy
			for i := 0; i < b.N; i++ {
				cands := heuristics.ReconstructAll(h, res.Streams)
				acc = eval.ScoreMatched(res.Real, cands)
			}
			b.ReportMetric(acc.Percent(), "acc%")
		})
	}
}

// BenchmarkAblationProxySharing measures the §1 proxy effect: agents behind
// shared IPs have their streams merged in the log, and every heuristic
// degrades because it must disentangle interleaved users.
func BenchmarkAblationProxySharing(b *testing.B) {
	for _, frac := range []float64{0, 0.5} {
		b.Run(fmt.Sprintf("proxy=%.0f%%", frac*100), func(b *testing.B) {
			params := simulator.PaperParams()
			params.Agents = 250
			params.ProxyFraction = frac
			params.ProxySize = 5
			g, res := benchWorkload(b, webgraph.PaperTopology(), params)
			h := heuristics.NewSmartSRA(g)
			var acc eval.Accuracy
			for i := 0; i < b.N; i++ {
				cands := heuristics.ReconstructAll(h, res.Streams)
				acc = eval.ScoreMatched(res.Real, cands)
			}
			b.ReportMetric(acc.Percent(), "acc%")
		})
	}
}

// BenchmarkReferrerUpperBound measures the referrer-chain reconstruction
// (internal/referrer) against Smart-SRA on the same workload: the reactive
// upper bound when the server logs Referer headers (Combined Log Format),
// which the paper's common-format setting deliberately lacks.
func BenchmarkReferrerUpperBound(b *testing.B) {
	params := simulator.PaperParams()
	params.Agents = 250
	g, res := benchWorkload(b, webgraph.PaperTopology(), params)
	records := res.Log(g)

	b.Run("heurR-referrer-chain", func(b *testing.B) {
		r := referrer.New(g)
		var acc eval.Accuracy
		for i := 0; i < b.N; i++ {
			sessions, err := r.Reconstruct(records)
			if err != nil {
				b.Fatal(err)
			}
			acc = eval.ScoreMatched(res.Real, sessions)
		}
		b.ReportMetric(acc.Percent(), "acc%")
	})
	b.Run("heur4-smartsra", func(b *testing.B) {
		h := heuristics.NewSmartSRA(g)
		var acc eval.Accuracy
		for i := 0; i < b.N; i++ {
			cands := heuristics.ReconstructAll(h, res.Streams)
			acc = eval.ScoreMatched(res.Real, cands)
		}
		b.ReportMetric(acc.Percent(), "acc%")
	})
}

// BenchmarkEvaluatePoint measures one full evaluation point — simulate,
// reconstruct with all four heuristics, score under both metrics — at bench
// scale (250 agents). This is the latency floor of every sweep: cmd/evaluate
// runs one of these per swept value, the simulator on its share of the
// worker budget and everything after it on one goroutine.
func BenchmarkEvaluatePoint(b *testing.B) {
	cfg := benchConfig()
	g, err := eval.Topology(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var sessions int
	for i := 0; i < b.N; i++ {
		p, err := eval.EvaluatePointOn(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sessions = p.RealSessions
	}
	b.ReportMetric(float64(sessions)*float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// BenchmarkScoreMatched measures the one-to-one matching scorer over one
// Table 5 workload's Smart-SRA candidates, materialised: both sides are
// packed into flat page arenas grouped by user once per call, so allocs/op
// does not grow with the session or probe count. (The kernel on its own,
// fed per user as the point driver feeds it, is eval's BenchmarkScorePoint.)
func BenchmarkScoreMatched(b *testing.B) {
	params := simulator.PaperParams()
	params.Agents = 250
	g, res := benchWorkload(b, webgraph.PaperTopology(), params)
	cands := heuristics.ReconstructAll(heuristics.NewSmartSRA(g), res.Streams)
	b.ReportAllocs()
	var acc eval.Accuracy
	for i := 0; i < b.N; i++ {
		acc = eval.ScoreMatched(res.Real, cands)
	}
	b.ReportMetric(acc.Percent(), "acc%")
	b.ReportMetric(float64(acc.Real)*float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// BenchmarkSmartSRAPhase2 measures Smart-SRA reconstruction throughput over
// one Table 5 workload — dominated by the Phase-2 wave construction, whose
// link rows, session nodes and entry arena the lane's scratch keeps. The
// browser cache serves every revisit, so no page repeats in a stream and
// the maximality filter never runs.
func BenchmarkSmartSRAPhase2(b *testing.B) {
	params := simulator.PaperParams()
	params.Agents = 250
	g, res := benchWorkload(b, webgraph.PaperTopology(), params)
	h := heuristics.NewSmartSRA(g)
	var entries int
	for _, st := range res.Streams {
		entries += len(st.Entries)
	}
	b.ReportAllocs()
	b.SetBytes(int64(entries))
	var sessions int
	for i := 0; i < b.N; i++ {
		sessions = len(heuristics.ReconstructAll(h, res.Streams))
	}
	b.ReportMetric(float64(sessions)*float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// crawlerCandidate is one un-cut simulator.CrawlerRecords bot over the
// 300-page Table 5 topology (seed 1) as a stream: every page, one to three
// seconds apart, which Phase 1 keeps as a single candidate.
func crawlerCandidate(tb testing.TB) (*webgraph.Graph, session.Stream) {
	tb.Helper()
	g, err := webgraph.GenerateTopology(webgraph.PaperTopology(), rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	var st session.Stream
	for _, r := range simulator.CrawlerRecords(g, 1, 1, benchT0) {
		if p, ok := g.PageByURI(r.URI); ok {
			st.User = r.Host
			st.Entries = append(st.Entries, session.Entry{Page: p, Time: r.Time})
		}
	}
	return g, st
}

// TestSmartSRACrawlerCandidatePinned pins Smart-SRA's output on that
// candidate: the session and entry counts and a SHA-256 of the rendered
// sessions, recorded before Phase 2 built sessions as integer paths and
// skipped the maximality filter on repeat-free streams. No page repeats in
// the sweep, so the filter does not run on it.
func TestSmartSRACrawlerCandidatePinned(t *testing.T) {
	g, st := crawlerCandidate(t)
	out := heuristics.ReconstructAll(heuristics.NewSmartSRA(g), []session.Stream{st})
	entries := 0
	for _, s := range out {
		entries += len(s.Entries)
	}
	sum := sha256.New()
	if err := session.WriteAll(sum, out); err != nil {
		t.Fatal(err)
	}
	const want = "5338d1cbb89974700a3fb74ac43303054909d1278dbf9eab8c4519c8c847a899"
	if got := fmt.Sprintf("%x", sum.Sum(nil)); len(out) != 9759 || entries != 157234 || got != want {
		t.Errorf("crawler candidate: %d sessions, %d entries, sha256 %s; want 9759, 157234, %s", len(out), entries, got, want)
	}
}

// BenchmarkSmartSRACrawlerCandidate reconstructs that candidate: 9,759
// maximal sessions from 300 requests (ROADMAP item 1). No page repeats in
// the sweep, so the cost is Phase 2's link rows and waves and writing the
// 157,234 entries out, with no maximality filter.
func BenchmarkSmartSRACrawlerCandidate(b *testing.B) {
	g, st := crawlerCandidate(b)
	h := heuristics.NewSmartSRA(g)
	b.ReportAllocs()
	var sessions, entries int
	for i := 0; i < b.N; i++ {
		out := heuristics.ReconstructAll(h, []session.Stream{st})
		sessions, entries = len(out), 0
		for _, s := range out {
			entries += len(s.Entries)
		}
	}
	b.ReportMetric(float64(len(st.Entries)), "requests")
	b.ReportMetric(float64(sessions), "sessions")
	b.ReportMetric(float64(entries), "entries")
}

// BenchmarkHeuristicThroughput measures raw reconstruction throughput of
// each heuristic over one Table 5 workload (streams/second scale check).
func BenchmarkHeuristicThroughput(b *testing.B) {
	params := simulator.PaperParams()
	params.Agents = 500
	g, res := benchWorkload(b, webgraph.PaperTopology(), params)
	var entries int
	for _, st := range res.Streams {
		entries += len(st.Entries)
	}
	for _, h := range eval.DefaultHeuristics(g) {
		b.Run(h.Name(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(entries))
			for i := 0; i < b.N; i++ {
				heuristics.ReconstructAll(h, res.Streams)
			}
		})
	}
}
