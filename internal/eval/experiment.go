package eval

import (
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
	metricPointTime  = metrics.GetTimer("eval.point")
	// The point's two stages: producing the streams (simulator.Run and the
	// optional CLF round trip), then reconstructing and scoring them.
	metricSimulateTime = metrics.GetTimer("eval.point.simulate")
	metricScoreTime    = metrics.GetTimer("eval.point.reconstruct_score")
	metricPointHist    = metrics.GetHistogram("eval.point.seconds")
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
	// TopologySeed seeds topology generation (independent of agent
	// randomness so sweeps reuse one site, like the paper's fixed web site).
	TopologySeed int64
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
	// Heuristics overrides the contenders; nil means DefaultHeuristics.
	Heuristics func(g *webgraph.Graph) []heuristics.Reconstructor
}

// PaperDefaults returns the Table 5 evaluation configuration.
func PaperDefaults() RunConfig {
	return RunConfig{
		Topology:     webgraph.PaperTopology(),
		TopologySeed: 2006,
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
// seeded with cfg.TopologySeed, independent of agent randomness, so the same
// configuration always yields the same graph — sweeps and replications can
// generate it once and share it read-only across concurrent points.
func Topology(cfg RunConfig) (*webgraph.Graph, error) {
	topoCfg := cfg.Topology
	if topoCfg.Pages == 0 {
		topoCfg = webgraph.PaperTopology()
	}
	return webgraph.GenerateTopology(topoCfg, rand.New(rand.NewSource(cfg.TopologySeed)))
}

// EvaluatePoint simulates one run and scores every heuristic on it.
func EvaluatePoint(cfg RunConfig) (*PointResult, error) {
	g, err := Topology(cfg)
	if err != nil {
		return nil, err
	}
	return EvaluatePointOn(g, cfg)
}

// EvaluatePointOn is EvaluatePoint over an already-generated topology. The
// graph is only read, never written, so many points may share one. It runs
// under the full-machine worker budget; see EvaluatePointWith.
func EvaluatePointOn(g *webgraph.Graph, cfg RunConfig) (*PointResult, error) {
	return EvaluatePointWith(g, cfg, RunOptions{})
}

// EvaluatePointWith is EvaluatePointOn under an explicit worker budget
// (opts.Workers; <= 0 means GOMAXPROCS), which the agent simulator and then
// each heuristic's pass over the streams get in turn, so nesting points
// inside a sweep pool never oversubscribes the machine. A pass handles one
// user at a time: reconstructed, scored under both metrics against the
// point's shared real-session index, measured, and dropped before the next
// (sessionIndex.scoreStreams); the budget shards the streams. The result is
// bit-identical for any budget: per-user results are integers summed in any
// order, and the simulator seeds agents independently.
func EvaluatePointWith(g *webgraph.Graph, cfg RunConfig, opts RunOptions) (*PointResult, error) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		metricPointTime.Observe(d)
		metricPointHist.ObserveDuration(d)
	}()
	budget := opts.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	if cfg.Params.Workers == 0 {
		cfg.Params.Workers = budget
	}
	res, err := simulator.Run(g, cfg.Params)
	if err != nil {
		return nil, err
	}
	streams := res.Streams
	if cfg.ViaCLF {
		streams, err = roundTripCLF(g, res)
		if err != nil {
			return nil, err
		}
	}
	simulated := time.Now()
	metricSimulateTime.Observe(simulated.Sub(start))
	defer func() { metricScoreTime.Observe(time.Since(simulated)) }()
	build := cfg.Heuristics
	if build == nil {
		build = DefaultHeuristics
	}
	point := &PointResult{
		Matched:       make(map[string]Accuracy),
		Exists:        make(map[string]Accuracy),
		Reconstructed: make(map[string]SessionStats),
		RealSessions:  len(res.Real),
	}
	record := func(name string, t tally, recon SessionStats) {
		point.Matched[name] = Accuracy{Real: len(res.Real), Captured: t.matched}
		point.Exists[name] = Accuracy{Real: len(res.Real), Captured: t.exists}
		point.Reconstructed[name] = recon
	}
	real := indexSessions(res.Real)
	for _, h := range build(g) {
		t := real.scoreStreams(h, streams, budget)
		record(h.Name(), t, t.stats())
	}
	if cfg.IncludeReferrer {
		// The chain is reconstructed from the whole log, not per stream, so
		// its sessions reach the kernel through the grouping feeder.
		r := referrer.New(g)
		chain, err := r.Reconstruct(res.LogCombined(g))
		if err != nil {
			return nil, err
		}
		record(r.Name(), real.scoreSessions(chain, budget), Summarize(chain))
	}
	metricPointsDone.Inc()
	return point, nil
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

// roundTripCLF renders the run as a CLF log and rebuilds the streams through
// the full parsing/cleaning pipeline, as a production deployment would.
func roundTripCLF(g *webgraph.Graph, res *simulator.Result) ([]session.Stream, error) {
	records := res.Log(g)
	// Render to text and parse back so the format itself is exercised.
	reparsed := make([]clf.Record, 0, len(records))
	for _, r := range records {
		rec, err := clf.ParseRecord(r.String())
		if err != nil {
			return nil, fmt.Errorf("eval: round trip: %w", err)
		}
		reparsed = append(reparsed, rec)
	}
	streams, _, err := prep.BuildStreams(reparsed, prep.GraphResolver(g), prep.Options{
		Filter: clf.StandardCleaning(),
	})
	return streams, err
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

// workers resolves the effective pool size for n tasks.
func (o RunOptions) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// split divides the total worker budget between a pool of n top-level tasks
// and the budget each concurrently-running task receives, so that
// pool × per-task concurrency never exceeds the total. With fewer tasks
// than budget the leftover goes to within-task sharding (e.g. a 3-point
// sweep on 8 cores runs 3 points × 2-way shards).
func (o RunOptions) split(n int) (pool, perTask int) {
	total := o.Workers
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	pool = o.workers(n)
	if pool < 1 {
		pool = 1
	}
	perTask = total / pool
	if perTask < 1 {
		perTask = 1
	}
	return pool, perTask
}

// Run executes the sweep sequentially — the bit-for-bit reference for
// RunWith, which parallelizes it.
func (e Experiment) Run() (*SweepResult, error) {
	return e.RunWith(RunOptions{Workers: 1})
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

// RunWith executes the sweep under a bounded worker pool. The topology is
// generated once (the swept variables only affect agent behavior, and
// topology generation is seeded independently — see RunConfig.TopologySeed)
// and shared read-only by every point. The worker budget covers the whole
// sweep: concurrent points split it, and each point shards its per-user
// reconstruction and scoring across its share (EvaluatePointWith), so
// points × shards never oversubscribes. Results are identical to Run's for
// any worker count; on error the lowest-indexed failing point's error is
// returned.
func (e Experiment) RunWith(opts RunOptions) (*SweepResult, error) {
	cfgs, err := e.pointConfigs()
	if err != nil {
		return nil, err
	}
	g, err := Topology(e.Base)
	if err != nil {
		return nil, err
	}
	points := make([]PointResult, len(cfgs))
	var (
		mu       sync.Mutex
		firstErr error
		errIdx   int
		done     int
	)
	pool, perPoint := opts.split(len(cfgs))
	pointOpts := RunOptions{Workers: perPoint}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				point, err := EvaluatePointWith(g, cfgs[i], pointOpts)
				mu.Lock()
				if err != nil {
					if firstErr == nil || i < errIdx {
						firstErr = fmt.Errorf("eval: %s at %s=%.2f: %w",
							e.Name, e.Variable, e.Values[i], err)
						errIdx = i
					}
				} else {
					point.X = e.Values[i]
					points[i] = *point
				}
				done++
				if opts.Progress != nil {
					opts.Progress(done, len(cfgs))
				}
				mu.Unlock()
			}
		}()
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return &SweepResult{Experiment: e, Points: points}, nil
}
