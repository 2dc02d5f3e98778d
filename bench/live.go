package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"smartsra/internal/webgraph"
)

const (
	// liveConns is the workload's connection count, not a tuning knob: two
	// keep-alive connections, one generator goroutine each.
	liveConns = 2
	// Short ρ, expiry and checkpoint periods, so that inside a run of a
	// few seconds bursts close, Phase 2 runs and checkpoints carry state.
	liveSessionGap      = "10s"
	liveExpireEvery     = "1s"
	liveCheckpointEvery = "2s"
	// liveWindow is the closed-loop sampling window: one checkpoint period,
	// so that every window holds one checkpoint's stall.
	liveWindow = 2 * time.Second
	// latencyLimitMS is the p99 a rate must meet to count as sustained.
	latencyLimitMS = 5.0
	// liveOpenShare of the run goes to each open-loop rate, the rest to the
	// closed loop.
	liveOpenShare = 0.2
	liveWarmup    = 2 * time.Second
)

// openLoopRates are the fixed request rates, lowest first. The server's
// memory is read after liveFillRate's phase: by then it has taken a fixed
// number of requests at fixed rates, whatever the box's speed.
var openLoopRates = [...]float64{2500, 5000, 7500}

const liveFillRate = 5000.0

// runLive drives live_serve: a serve child with access log, live sessions,
// checkpointing and timed expiry, fed the simulator's request schedule open
// loop at each fixed rate and then closed loop. The traced run drives the
// same phases, scrapes the server's own series between them, and makes the
// in-process layer measurements over the log serve wrote.
func runLive(ctx context.Context, e *env, cfg runConfig) (*runResult, error) {
	res, err := newResult(ctx, cfg)
	if err != nil {
		return nil, err
	}
	sc := cfg.scale()

	var (
		g    *webgraph.Graph
		topo string
		d    *driver
		srv  *liveServer
	)
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	if err := res.timeSetup(sc.setupReps, func(i int) error {
		if err := e.buildTools(ctx); err != nil {
			return err
		}
		if srv != nil {
			srv.kill()
			os.RemoveAll(srv.dir)
		}
		dir := filepath.Join(e.work, fmt.Sprintf("serve%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		var err error
		if g, err = webgraph.GenerateTopology(webgraph.PaperTopology(), rand.New(rand.NewSource(cfg.Seed))); err != nil {
			return err
		}
		topo = filepath.Join(dir, "topology.json")
		if err := writeFile(topo, g.Encode); err != nil {
			return err
		}
		sim, err := simulate(g, genParams{Seed: cfg.Seed, Agents: sc.liveAgents, Window: time.Hour})
		if err != nil {
			return err
		}
		d = &driver{conns: liveConns, reqs: renderRequests(sim.Schedule(g))}
		if srv, err = startServer(ctx, e, dir, topo); err != nil {
			return err
		}
		d.addr = srv.addr
		return nil
	}); err != nil {
		return nil, err
	}
	res.Info["schedule_requests"] = len(d.reqs)

	base, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	var total tally
	var lt *liveTrace
	hook := untracedPhase
	if cfg.Trace {
		lt = newLiveTrace(srv)
		hook = lt.phase
	}
	err = measureLive(ctx, res, srv, d, time.Duration(cfg.Seconds*float64(time.Second)), &total, hook)
	if lt != nil {
		lt.stopSampler()
	}
	if err != nil {
		return nil, err
	}
	end, err := srv.scrape()
	if err != nil {
		return nil, err
	}

	// Output checks. Every request ended in exactly one bucket, the server
	// logged exactly the accepted ones, and — after a graceful stop — an
	// offline replay of its access log with its cut journal reproduces the
	// live session file byte for byte.
	res.Attempted, res.Failed = total.Sent, total.Sent-total.Accepted
	res.Info["tally"] = total
	if total.Sent != total.Accepted+total.Shed+total.Rejected+total.Errors {
		res.failCheck("conservation: sent %d != accepted %d + shed %d + rejected %d + errors %d",
			total.Sent, total.Accepted, total.Shed, total.Rejected, total.Errors)
	}
	if logged := int(end.delta(base, "serve_requests")); logged != total.Accepted {
		res.failCheck("server logged %d requests, client saw %d accepted", logged, total.Accepted)
	}
	if err := srv.stop(); err != nil {
		res.failCheck("serve shutdown: %v", err)
	}
	replay := filepath.Join(e.work, "replay.sessions")
	child, err := runChild(ctx, e.tool("sessionize"), "-topology", topo, "-log", srv.logPath, "-stream",
		"-cuts", srv.sessPath+".cuts", "-session-gap", liveSessionGap, "-sessions", replay)
	if err != nil {
		return nil, err
	}
	if child.ExitCode != 0 {
		res.failCheck("offline replay exited %d: %s", child.ExitCode, lastLine(child.Stderr))
	} else if same, err := sameFile(replay, srv.sessPath); err != nil {
		return nil, err
	} else if !same {
		res.failCheck("offline replay with cuts differs from the live session file")
	}

	res.reportMedians()
	if cfg.Trace {
		if err := traceLiveLayers(res, e, g, srv, base, end, lt); err != nil {
			return nil, err
		}
	}
	res.finish(e.spec)
	return res, nil
}

// phaseHook drives one phase; the traced run's hook also scrapes the server
// before and after it and records a span.
type phaseHook func(name string, drive func() *phase) (*phase, error)

func untracedPhase(_ string, drive func() *phase) (*phase, error) { return drive(), nil }

// measureLive drives the phases and derives the client-side metrics.
//
// Open loop, liveOpenShare of the run at each of openLoopRates: latency from
// due time, the highest rate that is sustained, and the gated pair — server
// CPU per million requests over the three phases, and its inverse, requests
// per second of server CPU. They are taken here, where the same requests
// arrive at the same rates on every run and the box is at most 0.7 busy: ten
// runs then differ by a tenth. In the closed loop generator and server
// saturate both cores, and the same commit does 9,700 requests/s in one run
// and 15,200 in the next; that rate is reported as closed_rps, not gated.
//
// After liveFillRate's phase the server's peak RSS is read. Memory is taken
// there and not after the closed loop because there a faster box pushes more
// requests through the 10 s burst window and the peak grows with them (70 MiB
// at 11,000 requests/s, 101 MiB at 18,700/s, the same commit an hour apart);
// after a fixed count at fixed rates it says what the program holds, not how
// fast the box was.
//
// Closed loop, no pacing, for the rest of the run, cut into liveWindow
// windows: each gives one sample of accepted requests per second and of
// server CPU seconds per thousand of them.
func measureLive(ctx context.Context, res *runResult, srv *liveServer, d *driver, dur time.Duration, total *tally, hook phaseHook) error {
	// Warm-up, not timed and not part of dur: liveWarmup at the lowest rate
	// lets the fresh server fault its pages in, run its first collections
	// and save its first checkpoint, none of which a request to a server
	// that has been up for a minute ever waits for.
	warm := d.run(ctx, openLoopRates[0], liveWarmup)
	total.add(warm.tally())
	// Every fixed-rate phase runs between two yardstick readings; the server
	// idles through a reading.
	if _, err := res.yard.read(2); err != nil {
		return err
	}

	openDur := time.Duration(float64(dur) * liveOpenShare)
	var late []float64
	sustained := 0.0
	var openCPU, openCPURaw float64 // seconds, at the reference box speed and as read
	openAccepted := 0
	for _, rate := range openLoopRates {
		cpu0, err := procCPU(srv.pid())
		if err != nil {
			return err
		}
		p, err := hook(fmt.Sprintf("phase.open_r%.0f", rate), func() *phase { return d.run(ctx, rate, openDur) })
		if err != nil {
			return err
		}
		cpu1, err := procCPU(srv.pid())
		if err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		slowdown, err := res.yard.read(2)
		if err != nil {
			return err
		}
		t := p.tally()
		total.add(t)
		openCPU += atRef((cpu1 - cpu0).Seconds(), slowdown)
		res.sample("bench.box_slowdown", slowdown)
		openCPURaw += (cpu1 - cpu0).Seconds()
		openAccepted += t.Accepted
		if rate == liveFillRate {
			rss, err := procPeakRSS(srv.pid())
			if err != nil {
				return err
			}
			res.Metrics["peak_rss_mib"] = float64(rss) / (1 << 20)
		}
		lat := p.latenciesMS()
		p99, err := percentile(lat, 99)
		if err != nil {
			res.failCheck("open loop at %.0f/s: %v", rate, err)
			continue
		}
		res.Metrics[fmt.Sprintf("lat_p99_ms_r%.0f", rate)] = p99
		if rate == liveFillRate {
			if p50, err := percentile(lat, 50); err == nil {
				res.Metrics["lat_p50_ms_r5000"] = p50
			}
		}
		late = append(late, p.latenessMS()...)
		growing := p.latenessGrowing(openDur)
		failedShare := 1 - float64(t.Accepted)/float64(max(t.Sent, 1))
		if p99 <= latencyLimitMS && failedShare <= 0.001 && !growing {
			sustained = rate
		}
		res.Info[fmt.Sprintf("open_r%.0f", rate)] = map[string]any{
			"tally": t, "p99_ms": p99, "failed_share": failedShare, "lateness_growing": growing,
			"samples_beyond_p99": len(lat) - len(lat)*99/100,
		}
	}
	res.Metrics["sustained_rps"] = sustained
	if p99, err := percentile(late, 99); err == nil {
		res.Metrics["bench.gen_late_p99_ms"] = p99
	}
	if openAccepted > 0 && openCPU > 0 {
		res.Metrics["cpu_s_per_mrec"] = openCPU / float64(openAccepted) * 1e6
		res.Metrics["records_per_s"] = float64(openAccepted) / openCPU
		res.Metrics[rawPrefix+"cpu_s_per_mrec"] = openCPURaw / float64(openAccepted) * 1e6
		res.Metrics[rawPrefix+"records_per_s"] = float64(openAccepted) / openCPURaw
	}

	closed := dur - time.Duration(len(openLoopRates))*openDur
	windows := max(1, int(closed/liveWindow))
	window := min(closed, liveWindow)
	for w := 0; w < windows; w++ {
		cpu0, err := procCPU(srv.pid())
		if err != nil {
			return err
		}
		p, err := hook("phase.closed", func() *phase { return d.run(ctx, 0, window) })
		if err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		cpu1, err := procCPU(srv.pid())
		if err != nil {
			return err
		}
		t := p.tally()
		total.add(t)
		if t.Accepted == 0 {
			continue
		}
		res.sample("closed_rps", float64(t.Accepted)/p.Elapsed.Seconds())
		res.sample("serve.cpu_s_per_kreq", (cpu1-cpu0).Seconds()/float64(t.Accepted)*1e3)
	}
	res.Info["windows"] = windows
	return nil
}

// liveServer is the serve child process.
type liveServer struct {
	cmd      *exec.Cmd
	dir      string // log, sessions, cut journal and checkpoint live here
	addr     string
	logPath  string
	sessPath string
	waited   chan error
	mu       sync.Mutex
	output   bytes.Buffer // stdout + stderr, for diagnostics
	stopped  bool
}

func (s *liveServer) pid() int { return s.cmd.Process.Pid }

// startServer launches serve on a loopback port the kernel picks, learns
// the port from serve's own "listening on" line, and waits until
// /debug/metrics answers.
func startServer(ctx context.Context, e *env, dir, topo string) (*liveServer, error) {
	s := &liveServer{
		dir:      dir,
		logPath:  filepath.Join(dir, "access.log"),
		sessPath: filepath.Join(dir, "live.sessions"),
		waited:   make(chan error, 1),
	}
	s.cmd = exec.CommandContext(ctx, e.tool("serve"),
		"-topology", topo, "-addr", "127.0.0.1:0",
		"-log", s.logPath, "-sessions", s.sessPath, "-checkpoint", filepath.Join(dir, "state.ckpt"),
		"-trust-forwarded", "-session-gap", liveSessionGap,
		"-expire-every", liveExpireEvery, "-checkpoint-every", liveCheckpointEvery)
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	output := &lockedWriter{s: s}
	s.cmd.Stderr = output
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "serve: listening on "); ok {
				select {
				case addrc <- rest:
				default:
				}
			}
			output.Write([]byte(line + "\n"))
		}
		// Wait only after stdout is drained, as os/exec requires.
		s.waited <- s.cmd.Wait()
	}()
	select {
	case s.addr = <-addrc:
	case err := <-s.waited:
		s.stopped = true
		return nil, fmt.Errorf("serve exited before listening: %v\n%s", err, s.diagnostics())
	case <-time.After(15 * time.Second):
		s.kill()
		return nil, fmt.Errorf("serve did not report its address within 15 s\n%s", s.diagnostics())
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := s.scrape(); err == nil {
			return s, nil
		} else if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("serve not ready: %v\n%s", err, s.diagnostics())
		}
	}
}

type lockedWriter struct{ s *liveServer }

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	return w.s.output.Write(p)
}

func (s *liveServer) diagnostics() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.output.String()
}

// stop asks serve to shut down gracefully (final flush and checkpoint) and
// waits for it.
func (s *liveServer) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.waited:
		if err != nil {
			return fmt.Errorf("%v: %s", err, lastLine([]byte(s.diagnostics())))
		}
		return nil
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.waited
		return fmt.Errorf("serve ignored SIGTERM for 20 s and was killed")
	}
}

// kill is the deferred safety net: whatever happened, no child survives.
func (s *liveServer) kill() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.cmd.Process.Kill()
	<-s.waited
}

// promSnapshot is one scrape of /debug/metrics in the Prometheus text
// format: series (name plus label set, verbatim) to value.
type promSnapshot map[string]float64

func (s *liveServer) scrape() (promSnapshot, error) {
	resp, err := http.Get("http://" + s.addr + "/debug/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	snap := make(promSnapshot)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			snap[line[:i]] = v
		}
	}
	return snap, nil
}

// delta is a counter's growth since an earlier scrape.
func (p promSnapshot) delta(earlier promSnapshot, series string) float64 {
	return p[series] - earlier[series]
}

// histogramQuantile estimates the q-quantile of a histogram's growth since
// an earlier scrape, interpolating inside the bucket like the server's own
// metrics.HistogramStats.Quantile. It returns 0 when nothing was observed.
func (p promSnapshot) histogramQuantile(earlier promSnapshot, name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var buckets []bucket
	prefix := name + `_bucket{le="`
	for series, v := range p {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64) // "+Inf" parses
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{le, v - earlier[series]})
	}
	if len(buckets) == 0 {
		return 0
	}
	slices.SortFunc(buckets, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
	count := buckets[len(buckets)-1].cum
	if count == 0 {
		return 0
	}
	rank := q * count
	lo, prev := 0.0, 0.0
	for _, b := range buckets {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.cum == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}

// sameFile reports whether two files hold the same bytes.
func sameFile(a, b string) (bool, error) {
	x, err := os.ReadFile(a)
	if err != nil {
		return false, err
	}
	y, err := os.ReadFile(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(x, y), nil
}
