package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/eval"
	"smartsra/internal/heuristics"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
	"smartsra/internal/webserver"
)

// The traced run of each workload: what it adds to the shared log-path
// measurement of layers.go, and the span file it leaves behind.

// finishTrace closes the root span, writes the span file and notes where.
func finishTrace(res *runResult, e *env, tr *tracer, root int) error {
	tr.end(root)
	path, err := tr.write(e, res.Config)
	if err != nil {
		return err
	}
	res.Info["trace_file"] = path
	self := make(map[string]float64)
	for name, d := range tr.selfTimes() {
		self[name] = d.Seconds()
	}
	res.Info["self_time_s"] = self
	res.Info["spans"] = len(tr.spans)
	return nil
}

// traceOffline is the traced run of the two offline workloads.
func traceOffline(res *runResult, e *env, c *corpus, ref [][]byte, sc scale) error {
	tr := newTracer()
	root := tr.begin("run", -1, -1)
	if err := traceLog(res, tr, root, e.work, c, ref, sc); err != nil {
		return err
	}
	probeSimulator(res, tr, root, c.Graph, sc)
	return finishTrace(res, e, tr, root)
}

// probeSimulator times the agent model every workload's set-up runs on.
func probeSimulator(res *runResult, tr *tracer, parent int, g *webgraph.Graph, sc scale) {
	id := tr.begin("isolated.simulator.run", parent, -1)
	defer tr.end(id)
	p := simulator.PaperParams()
	p.Agents = sc.evalAgents
	start := time.Now()
	sim, err := simulator.Run(g, p)
	if err != nil || sim.Stats.Navigations == 0 {
		return
	}
	res.Metrics["simulator.run_ns_per_nav"] = float64(time.Since(start)) / float64(sim.Stats.Navigations)
}

// liveTrace is what the traced live run keeps between its phases and the
// measurements made after the server has stopped.
type liveTrace struct {
	srv    *liveServer
	tr     *tracer
	root   int
	before []promSnapshot // scrape before each phase, open rates then closed windows
	after  []promSnapshot
	// pendingMax is the highest ingest-queue occupancy any scrape saw.
	pendingMax float64
	stop, done chan struct{}
}

// newLiveTrace starts the trace and a sampler that reads the server's queue
// gauge four times a second while the phases run.
func newLiveTrace(srv *liveServer) *liveTrace {
	lt := &liveTrace{srv: srv, tr: newTracer(), stop: make(chan struct{}), done: make(chan struct{})}
	lt.root = lt.tr.begin("run", -1, -1)
	go func() {
		defer close(lt.done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-lt.stop:
				return
			case <-tick.C:
				if snap, err := srv.scrape(); err == nil {
					lt.pendingMax = max(lt.pendingMax, snap["serve_ingest_pending"])
				}
			}
		}
	}()
	return lt
}

// stopSampler returns once the sampler has exited; pendingMax is then safe
// to read.
func (lt *liveTrace) stopSampler() {
	close(lt.stop)
	<-lt.done
}

// phase is the traced run's phaseHook: the server's own series are scraped
// before and after the phase, and the phase is a span.
func (lt *liveTrace) phase(name string, drive func() *phase) (*phase, error) {
	snap, err := lt.srv.scrape()
	if err != nil {
		return nil, err
	}
	lt.before = append(lt.before, snap)
	id := lt.tr.begin(name, lt.root, -1)
	p := drive()
	lt.tr.end(id)
	if snap, err = lt.srv.scrape(); err != nil {
		return nil, err
	}
	lt.after = append(lt.after, snap)
	return p, nil
}

// traceLiveLayers turns the scrapes into serve.* metrics (deltas of the
// program's own series: read, never redefined), times the request-path
// handlers in process, and runs the log-path measurement over the access
// log the server wrote, with the server's burst gap.
func traceLiveLayers(res *runResult, e *env, g *webgraph.Graph, srv *liveServer, base, end promSnapshot, lt *liveTrace) error {
	// The 5000/s phase is the one the client-side p50 and p99 pair with:
	// client p99 minus handler p99 is network plus generator queueing.
	const r5000 = 1
	if len(lt.after) > r5000 {
		res.Metrics["serve.handler_p50_ms"] = 1000 * lt.after[r5000].histogramQuantile(lt.before[r5000], "serve_request_seconds", 0.50)
		res.Metrics["serve.handler_p99_ms"] = 1000 * lt.after[r5000].histogramQuantile(lt.before[r5000], "serve_request_seconds", 0.99)
	}
	res.Metrics["serve.barrier_p99_ms"] = 1000 * end.histogramQuantile(base, "serve_ingest_barrier_seconds", 0.99)
	res.Metrics["serve.queue_depth_max"] = lt.pendingMax
	sent := float64(max(res.Attempted, 1))
	res.Metrics["serve.shed_share"] = end.delta(base, "serve_shed") / sent
	res.Metrics["serve.checkpoints_saved"] = end.delta(base, `checkpoint_events{kind="save"}`)
	res.Metrics["serve.sessions_emitted"] = end.delta(base, "core_tail_sessions")
	if cuts, err := os.ReadFile(srv.sessPath + ".cuts"); err == nil {
		res.Metrics["serve.expiry_cuts"] = float64(bytes.Count(cuts, []byte("\n")))
	}

	probeWebserver(res, lt.tr, lt.root, g)

	logData, err := os.ReadFile(srv.logPath)
	if err != nil {
		return err
	}
	rho, err := time.ParseDuration(liveSessionGap)
	if err != nil {
		return err
	}
	c := &corpus{Graph: g, LogPaths: []string{srv.logPath}, Bytes: int64(len(logData)), Rho: rho}
	c.Counts.Lines = bytes.Count(logData, []byte("\n"))
	c.Counts.Records = c.Counts.Lines
	if err := traceLog(res, lt.tr, lt.root, e.work, c, nil, res.Config.scale()); err != nil {
		return err
	}
	probeSimulator(res, lt.tr, lt.root, g, res.Config.scale())
	return finishTrace(res, e, lt.tr, lt.root)
}

// probeWebserver times the request-path handlers under httptest: the bare
// site, and what the access-log and admission wrappers add to it.
func probeWebserver(res *runResult, tr *tracer, parent int, g *webgraph.Graph) {
	id := tr.begin("isolated.webserver", parent, -1)
	defer tr.end(id)
	reqs := make([]*http.Request, 0, 64)
	for _, p := range g.Pages() {
		if len(reqs) == cap(reqs) {
			break
		}
		r := httptest.NewRequest(http.MethodGet, g.Label(p), nil)
		r.Header.Set("X-Forwarded-For", simulator.AgentID(len(reqs)))
		reqs = append(reqs, r)
	}
	const rounds, n = 7, 4000
	perReq := func(h http.Handler) float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			h.ServeHTTP(httptest.NewRecorder(), reqs[i%len(reqs)])
		}
		return float64(time.Since(start)) / n
	}
	site := webserver.NewSite(g)
	sink := webserver.NewWriterSink(clf.NewWriter(io.Discard))
	logged := webserver.AccessLogWith(site, sink, webserver.LogOptions{TrustForwardedFor: true})
	// Limits far above what the loop can reach: the wrapper's bookkeeping
	// is timed, not its refusals.
	admitted := webserver.NewAdmission(webserver.AdmissionConfig{
		MaxInFlight: 1 << 20, PerIPRate: 1e9, TrustForwardedFor: true}).Wrap(site)
	// A wrapper costs a tenth of the recorder-dominated bare call, so the
	// three are timed in alternation and the per-round differences kept.
	var bare, logCost, admCost []float64
	for r := 0; r < rounds; r++ {
		b := perReq(site)
		bare = append(bare, b)
		logCost = append(logCost, perReq(logged)-b)
		admCost = append(admCost, perReq(admitted)-b)
	}
	res.Metrics["webserver.site_ns_per_req"] = median(bare)
	res.Metrics["webserver.accesslog_ns_per_req"] = median(logCost)
	res.Metrics["webserver.admission_ns_per_req"] = median(admCost)
}

// traceEval is the traced run of eval_sweep: one Table 5 point taken apart
// in process — simulate, reconstruct with each heuristic through the batch
// entry, score — plus the log-path measurement over that point's log.
func traceEval(res *runResult, e *env, in *evalInput, sc scale) error {
	tr := newTracer()
	root := tr.begin("run", -1, -1)

	g, err := eval.Topology(in.cfg)
	if err != nil {
		return err
	}
	point := tr.begin("eval.point", root, -1)
	id := tr.begin("simulator.run", point, -1)
	sim, err := simulator.Run(g, in.cfg.Params)
	tr.end(id)
	if err != nil {
		return err
	}
	for _, h := range eval.DefaultHeuristics(g) {
		id := tr.begin("heuristics."+h.Name(), point, -1)
		cand := heuristics.ReconstructAll(h, sim.Streams)
		tr.end(id)
		id = tr.begin("eval.score", point, -1)
		eval.ScoreMatched(sim.Real, cand)
		eval.Score(sim.Real, cand)
		tr.end(id)
	}
	tr.end(point)

	id = tr.begin("isolated.eval.point", root, -1)
	start := time.Now()
	if _, err := eval.EvaluatePointOn(g, in.cfg); err != nil {
		return err
	}
	res.Metrics["eval.point_ms"] = ms(time.Since(start))
	tr.end(id)
	probeSimulator(res, tr, root, g, sc)

	c, err := generate(e.work, genParams{Seed: res.Config.Seed, Agents: sc.evalAgents})
	if err != nil {
		return err
	}
	if err := traceLog(res, tr, root, e.work, c, nil, sc); err != nil {
		return err
	}
	return finishTrace(res, e, tr, root)
}
