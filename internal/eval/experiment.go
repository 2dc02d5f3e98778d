package eval

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/metrics"
	"smartsra/internal/prep"
	"smartsra/internal/referrer"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// Sweep-progress instrumentation (internal/metrics Default registry).
var (
	metricPointsDone = metrics.GetCounter("eval.points.completed")
	metricSeedsDone  = metrics.GetCounter("eval.seeds.completed")
	metricPointHist  = metrics.GetHistogram("eval.point.seconds")
	// A point's wall time split by what its goroutine did. Simulation and
	// scoring interleave, so both are sums taken per user, not stages: score
	// is the time spent on users handed over (packing the real sessions, the
	// optional CLF or referrer round trip, reconstruction and scoring), and
	// simulate is the rest of the wall time, spent waiting for the simulator
	// to finish the next user.
	metricSimulateHist = metrics.GetHistogram("eval.point.simulate.seconds")
	metricScoreHist    = metrics.GetHistogram("eval.point.score.seconds")
)

// HeuristicNames lists the four heuristics in the paper's order.
var HeuristicNames = []string{"heur1", "heur2", "heur3", "heur4"}

// DefaultHeuristics builds the paper's four contenders over a topology.
func DefaultHeuristics(g *webgraph.Graph) []heuristics.Reconstructor {
	return []heuristics.Reconstructor{
		heuristics.NewTimeTotal(),
		heuristics.NewTimeGap(),
		heuristics.NewNavigation(g),
		heuristics.NewSmartSRA(g),
	}
}

// RunConfig describes one evaluation point: a topology, simulation
// parameters, and how the log reaches the heuristics.
type RunConfig struct {
	// Topology configures the random site; zero value means PaperTopology.
	Topology webgraph.TopologyConfig
	// topologySeed seeds topology generation (independent of agent
	// randomness so sweeps reuse one site, like the paper's fixed web site).
	// It is 2006; the package's tests draw others.
	topologySeed int64
	// Params configures the agent simulator.
	Params simulator.Params
	// ViaCLF routes the simulated requests through an actual Common Log
	// Format encode→parse→clean→identify pipeline instead of handing the
	// simulator's streams to the heuristics directly. Slower; exercises the
	// full reactive pipeline end to end.
	ViaCLF bool
	// IncludeReferrer additionally evaluates the referrer-chain
	// reconstruction ("heurR", internal/referrer) over the combined-format
	// log — the reactive upper bound the paper's common-format setting
	// cannot reach.
	IncludeReferrer bool
	// heuristics overrides the contenders for the package's tests; nil
	// means DefaultHeuristics.
	heuristics func(g *webgraph.Graph) []heuristics.Reconstructor
}

// PaperDefaults returns the Table 5 evaluation configuration.
func PaperDefaults() RunConfig {
	return RunConfig{
		Topology:     webgraph.PaperTopology(),
		topologySeed: 2006,
		Params:       simulator.PaperParams(),
	}
}

// PointResult is the outcome of evaluating all heuristics at one parameter
// value. Both accuracy readings of §5.1 are reported: Matched (one-to-one,
// "correctly reconstructed sessions" — the headline metric, see ScoreMatched)
// and Exists (a real session counts if ANY candidate captures it).
type PointResult struct {
	// X is the swept parameter value (a probability in [0,1]).
	X float64
	// Matched maps heuristic name to one-to-one accuracy at this point.
	Matched map[string]Accuracy
	// Exists maps heuristic name to unconstrained capture accuracy.
	Exists map[string]Accuracy
	// Reconstructed maps heuristic name to stats over its session set.
	Reconstructed map[string]SessionStats
	// RealSessions is the ground-truth session count at this point.
	RealSessions int
}

// Topology generates the site graph cfg describes. The generation RNG is
// seeded with cfg.topologySeed, independent of agent randomness, so the same
// configuration always yields the same graph — sweeps and replications can
// generate it once and share it read-only across concurrent points.
func Topology(cfg RunConfig) (*webgraph.Graph, error) {
	topoCfg := cfg.Topology
	if topoCfg.Pages == 0 {
		topoCfg = webgraph.PaperTopology()
	}
	return webgraph.GenerateTopology(topoCfg, rand.New(rand.NewSource(cfg.topologySeed)))
}

// EvaluatePointOn simulates one run over g and scores every heuristic on
// it. The graph is only read, never written, so many points may share one. The
// simulator spreads agents over cfg.Params.Workers goroutines (0: its own
// default) and hands each finished user to the calling goroutine
// (simulator.Each), which scores it beside the simulator: the user's real
// sessions are packed, every heuristic reconstructs its stream and is scored
// under both metrics, and the user is dropped before the next. A point
// therefore holds a few users per simulator worker, never its population.
//
// ViaCLF and IncludeReferrer are per-user too: the user's slice of the log is
// rendered, parsed back and grouped (prep.BuildStreams), or chained
// (referrer.Reconstruct). Both group records by host and stable-sort each
// host's records by time, and a user's records are already in time order, so
// this equals running them over the whole time-sorted log.
func EvaluatePointOn(g *webgraph.Graph, cfg RunConfig) (*PointResult, error) {
	start := time.Now()
	ps := newPointScorer(g, cfg)
	var (
		scoring time.Duration
		failed  error
	)
	stats, err := simulator.Each(g, cfg.Params, func(u *simulator.User) {
		if failed == nil {
			began := time.Now()
			failed = ps.user(u)
			scoring += time.Since(began)
		}
	})
	if err == nil {
		err = failed
	}
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	metricPointHist.ObserveDuration(wall)
	metricScoreHist.ObserveDuration(scoring)
	metricSimulateHist.ObserveDuration(wall - scoring)
	point := &PointResult{
		Matched:       make(map[string]Accuracy),
		Exists:        make(map[string]Accuracy),
		Reconstructed: make(map[string]SessionStats),
		RealSessions:  stats.RealSessions,
	}
	record := func(name string, t tally) {
		point.Matched[name] = Accuracy{Real: stats.RealSessions, Captured: t.matched}
		point.Exists[name] = Accuracy{Real: stats.RealSessions, Captured: t.exists}
		point.Reconstructed[name] = t.stats()
	}
	for i, h := range ps.heuristics {
		record(h.Name(), ps.passes[i].tally)
	}
	if cfg.IncludeReferrer {
		record(ps.chain.Name(), ps.chained.tally)
	}
	metricPointsDone.Inc()
	return point, nil
}

// pointScorer is a point's scoring side: one pass per heuristic (plus the
// referrer chain's scorer under IncludeReferrer), fed one simulated user at
// a time, all on one scratch. Every tally is an integer sum or a histogram,
// so the order users arrive in cannot change the result.
type pointScorer struct {
	g          *webgraph.Graph
	cfg        RunConfig
	heuristics []heuristics.Reconstructor
	passes     []*pass
	chain      referrer.Reconstructor
	chained    scorer
	real       pageLists // the current user's real sessions
}

func newPointScorer(g *webgraph.Graph, cfg RunConfig) *pointScorer {
	build := cfg.heuristics
	if build == nil {
		build = DefaultHeuristics
	}
	scr := new(scratch)
	ps := &pointScorer{g: g, cfg: cfg, heuristics: build(g), chain: referrer.New(g), chained: scorer{scratch: scr}}
	for _, h := range ps.heuristics {
		ps.passes = append(ps.passes, newPass(h, scr))
	}
	return ps
}

// user packs u's real sessions, then reconstructs and scores u under every
// pass. Nothing of u is kept.
func (ps *pointScorer) user(u *simulator.User) error {
	ps.real.reset()
	for i := range u.Real {
		ps.real.add(u.Real[i].Entries)
	}
	streams := []session.Stream{{User: u.Label, Entries: u.Stream}}
	if ps.cfg.ViaCLF {
		var err error
		if streams, err = roundTripCLF(ps.g, u); err != nil {
			return err
		}
	}
	for _, p := range ps.passes {
		for _, st := range streams {
			p.user(ps.real, st)
		}
	}
	if ps.cfg.IncludeReferrer {
		chain, err := ps.chain.Reconstruct(userLog(u).Log(ps.g))
		if err != nil {
			return err
		}
		ps.chained.candidates(ps.real, chain)
	}
	return nil
}

// userLog is a run holding only u, so that its Log renders u's slice of the
// whole run's log.
func userLog(u *simulator.User) *simulator.Result {
	return &simulator.Result{
		Streams:   []session.Stream{{User: u.Label, Entries: u.Stream}},
		Referrers: [][]webgraph.PageID{u.Refs},
	}
}

// roundTripCLF renders u's requests as CLF text and rebuilds its stream
// through the full parsing/cleaning pipeline, as a production deployment
// would — the text through the byte parser the log readers use: one stream,
// or none if cleaning dropped every record. A rendered line the parser
// rejects is an error.
func roundTripCLF(g *webgraph.Graph, u *simulator.User) ([]session.Stream, error) {
	records := userLog(u).Log(g)
	var text bytes.Buffer
	w := clf.NewWriter(&text)
	for _, r := range records {
		w.Write(r) // the first failed write is Flush's error
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("eval: round trip: %w", err)
	}
	n := len(records)
	records, malformed := clf.ParseChunk(text.Bytes(), records[:0])
	if malformed > 0 {
		return nil, fmt.Errorf("eval: round trip: %d of %d rendered lines malformed", malformed, n)
	}
	streams, _, err := prep.BuildStreams(records, prep.GraphResolver(g), prep.Options{
		Filter: clf.StandardCleaning(),
	})
	return streams, err
}

// SeriesNames returns the heuristic names actually present in the point, in
// report order: the paper's four first (those that were evaluated), then any
// extras — custom heuristics, the referrer upper bound "heurR" — sorted for
// determinism. An empty point falls back to the paper's four.
func (p *PointResult) SeriesNames() []string {
	present := make(map[string]bool, len(p.Matched))
	for name := range p.Matched {
		present[name] = true
	}
	return orderSeries(present)
}

// orderSeries sorts a set of series names into report order: paper names
// first (in HeuristicNames order), extras after, alphabetically. An empty set
// yields the paper's four, so zero-value points still render a header.
func orderSeries(present map[string]bool) []string {
	if len(present) == 0 {
		return append([]string(nil), HeuristicNames...)
	}
	names := make([]string, 0, len(present))
	for _, h := range HeuristicNames {
		if present[h] {
			names = append(names, h)
		}
	}
	paper := make(map[string]bool, len(HeuristicNames))
	for _, h := range HeuristicNames {
		paper[h] = true
	}
	extras := make([]string, 0, len(present))
	for name := range present {
		if !paper[name] {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	return append(names, extras...)
}

// Experiment is a one-dimensional parameter sweep, as in Figures 8-10.
type Experiment struct {
	// Name identifies the experiment ("figure8", ...).
	Name string
	// Title is the paper's caption-style description.
	Title string
	// Variable is the swept parameter: "STP", "LPP", or "NIP".
	Variable string
	// Values are the probabilities to sweep, in order.
	Values []float64
	// Base is the configuration applied at every point before the swept
	// variable is overridden.
	Base RunConfig
}

// Figure8 sweeps STP from 1% to 20% with LPP and NIP fixed at Table 5's
// values (paper Figure 8).
func Figure8(base RunConfig) Experiment {
	values := make([]float64, 0, 20)
	for pct := 1; pct <= 20; pct++ {
		values = append(values, float64(pct)/100)
	}
	return Experiment{
		Name:     "figure8",
		Title:    "Real accuracy vs STP (LPP=30%, NIP=30%)",
		Variable: "STP",
		Values:   values,
		Base:     base,
	}
}

// Figure9 sweeps LPP from 0% to 90% (paper Figure 9).
func Figure9(base RunConfig) Experiment {
	values := make([]float64, 0, 10)
	for pct := 0; pct <= 90; pct += 10 {
		values = append(values, float64(pct)/100)
	}
	return Experiment{
		Name:     "figure9",
		Title:    "Real accuracy vs LPP (STP=5%, NIP=30%)",
		Variable: "LPP",
		Values:   values,
		Base:     base,
	}
}

// Figure10 sweeps NIP from 0% to 90% (paper Figure 10).
func Figure10(base RunConfig) Experiment {
	values := make([]float64, 0, 10)
	for pct := 0; pct <= 90; pct += 10 {
		values = append(values, float64(pct)/100)
	}
	return Experiment{
		Name:     "figure10",
		Title:    "Real accuracy vs NIP (STP=5%, LPP=30%)",
		Variable: "NIP",
		Values:   values,
		Base:     base,
	}
}

// SweepResult is an executed Experiment.
type SweepResult struct {
	Experiment Experiment
	Points     []PointResult
}

// RunOptions tunes sweep execution. The zero value runs on all cores with no
// progress reporting.
type RunOptions struct {
	// Workers bounds the number of points evaluated concurrently; <= 0 means
	// GOMAXPROCS. Worker count never changes results: points are seeded
	// independently, so any schedule produces bit-identical PointResults.
	Workers int
	// Progress, when non-nil, is called after each point completes with the
	// number done so far and the total. Calls are serialized (never
	// concurrent) but arrive in completion order, not sweep order.
	Progress func(done, total int)
}

// runPoints evaluates every configuration on g under the harness's one
// pool: min(Workers, len(cfgs)) goroutines, each running whole points. A
// point whose Params.Workers is 0 gives its simulator the pool's share of
// the budget, Workers / pool, so the pool never oversubscribes the machine.
// The points come back in cfgs order; on failure the lowest-indexed failing
// point's error is returned with its index, and every point still runs.
func runPoints(g *webgraph.Graph, cfgs []RunConfig, opts RunOptions) ([]*PointResult, int, error) {
	total := opts.Workers
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	pool := max(1, min(total, len(cfgs)))
	share := max(1, total/pool)
	points := make([]*PointResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var (
		mu   sync.Mutex
		done int
		wg   sync.WaitGroup
	)
	next := make(chan int)
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cfg := cfgs[i]
				if cfg.Params.Workers == 0 {
					cfg.Params.Workers = share
				}
				points[i], errs[i] = EvaluatePointOn(g, cfg)
				if opts.Progress != nil {
					mu.Lock()
					done++
					opts.Progress(done, len(cfgs))
					mu.Unlock()
				}
			}
		}()
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, i, err
		}
	}
	return points, 0, nil
}

// pointConfigs expands the sweep into one RunConfig per swept value.
func (e Experiment) pointConfigs() ([]RunConfig, error) {
	cfgs := make([]RunConfig, len(e.Values))
	for i, v := range e.Values {
		cfg := e.Base
		switch e.Variable {
		case "STP":
			cfg.Params.STP = v
		case "LPP":
			cfg.Params.LPP = v
		case "NIP":
			cfg.Params.NIP = v
		default:
			return nil, fmt.Errorf("eval: unknown sweep variable %q", e.Variable)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// RunWith executes the sweep's points under the bounded worker pool
// (runPoints). The topology is generated once (the swept variables only
// affect agent behavior, and topology generation is seeded independently —
// see RunConfig.topologySeed) and shared read-only by every point. Results
// are identical for any worker count; on error the lowest-indexed
// failing point's error is returned.
func (e Experiment) RunWith(opts RunOptions) (*SweepResult, error) {
	cfgs, err := e.pointConfigs()
	if err != nil {
		return nil, err
	}
	g, err := Topology(e.Base)
	if err != nil {
		return nil, err
	}
	points, i, err := runPoints(g, cfgs, opts)
	if err != nil {
		return nil, fmt.Errorf("eval: %s at %s=%.2f: %w", e.Name, e.Variable, e.Values[i], err)
	}
	res := &SweepResult{Experiment: e, Points: make([]PointResult, len(points))}
	for i, p := range points {
		p.X = e.Values[i]
		res.Points[i] = *p
	}
	return res, nil
}
