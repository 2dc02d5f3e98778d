// Command serve runs a topology as a real website over HTTP, writing a
// Common or Combined Log Format access log as traffic arrives — a live
// substrate for the reactive pipeline. Browse it, crawl it, or point load
// generators at it; then feed the log to cmd/sessionize.
//
// Usage:
//
//	serve -topology topology.json [-addr :8080] [-log access.log] [-combined]
//	      [-sessions sessions.txt] [-shards auto|S] [-expire-every 30s]
//	      [-backfill old.log] [-workers auto|N] [-stream-depth auto|D]
//	      [-checkpoint state.ckpt] [-checkpoint-every 10s]
//	      [-ingest-queue 1024] [-shed-mode 503] [-trust-forwarded]
//
// -workers, -shards, and -stream-depth default to "auto": the execution
// planner sizes replay parallelism from the core count and the replayed
// file, and shard striping from the expected request-handler concurrency,
// falling back to the sequential reader and a single shard wherever
// parallelism cannot win (notably on one core). Explicit numbers override
// the planner but are clamped to usable values; the effective plan is
// logged once at startup and never changes output.
//
// The log flushes on every request batch, and Ctrl-C (SIGINT/SIGTERM)
// shuts down gracefully, flushing every still-buffered session when
// -sessions is active (use a file and tail -f to watch). SIGHUP reopens
// the -log and -sessions files for logrotate-style rotation without
// dropping records. Runtime counters — requests served, log lines written,
// write errors, retry/dead-letter/checkpoint events — are exposed as plain
// text at /debug/metrics, and CPU, heap, allocation, goroutine and execution
// trace profiles of the running server at /debug/pprof/ (go tool pprof
// http://host/debug/pprof/profile?seconds=10).
//
// With -sessions the request path is decoupled from the sessionizer by a
// bounded ingest queue: the handler appends the record to the access log and
// enqueues it, and a single drainer goroutine feeds the sessionizer in
// batches. When the queue is full the server sheds load explicitly instead
// of blocking requests or buffering without bound. -shed-mode picks how:
// "503" (the default) refuses the whole request with 503 Service Unavailable
// before it is served or logged, so the access log stays exactly equal to
// what the sessionizer ingested; "drop-count" serves and logs the request
// but drops the record from the live sessionizer (an offline replay of the
// log recovers the difference). Either way every shed is counted in the
// serve.shed metric — never silent. -ingest-queue sizes the queue (0 reverts
// to synchronous in-handler sessionizing); per-request latency lands in the
// serve.request.seconds histogram, whose p50/p95/p99 show up at
// /debug/metrics.
//
// -trust-forwarded keys the client identity off the first X-Forwarded-For
// address when the header is present — required when traffic arrives through
// a trusted proxy or from cmd/loadgen, which replays many simulated users
// over one loopback pool. Leave it off for directly exposed servers: the
// header is client-controlled.
//
// With -sessions the server also sessionizes its own traffic live: every
// logged request is pushed into a core.ShardedTail (Smart-SRA), finalized
// sessions are appended to the given file as they close (through a
// core.RetrySink, so transient write failures are retried and persistent
// ones land in <sessions>.deadletter instead of vanishing; once writes
// recover, the journal is re-ingested and truncated, so it tracks the
// current outage instead of growing forever), and a
// background ticker expires quiet users every -expire-every so their
// sessions are not held forever.
//
// With -checkpoint the server periodically snapshots the sessionizer's
// open-burst state together with the access-log and session-file offsets
// (atomic, CRC-protected writes). On restart it restores the snapshot,
// truncates the session file to the recorded offset, and replays the
// access log from the recorded offset — sessions across a crash are
// emitted exactly once. A corrupt or stale checkpoint is detected and
// recovery falls back to a full replay of the access log. -checkpoint
// needs -log and -sessions (the offsets refer to those files) and replaces
// -backfill (recovery replays the log anyway).
//
// -backfill streams an existing access log through the same sessionizer
// before serving begins, so the live tail starts with history already in
// place. It accepts a comma-separated list of paths and/or globs
// ("access.log*"), replayed in lexical order with gzip members decoded
// transparently, and uses the bounded-memory streaming reader (-workers
// parse goroutines, -stream-depth in-flight chunks), so arbitrarily large
// history replays in fixed heap.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/metrics"
	"smartsra/internal/plan"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
	"smartsra/internal/webserver"
)

var (
	// metricRequests counts access-log records written by this server.
	metricRequests = metrics.GetCounter("serve.requests")
	// metricLogWriteErrors counts requests whose access-log write failed —
	// silent data loss made alertable.
	metricLogWriteErrors = metrics.GetCounter("serve.log_write_errors")
	// metricSessionWriteErrors counts failed session-file write attempts
	// (before any retry succeeds or dead-letters).
	metricSessionWriteErrors = metrics.GetCounter("serve.session_write_errors")
	// metricLatency is the server-side request latency distribution.
	metricLatency = metrics.Default.GetHistogramBuckets("serve.request.seconds", metrics.LatencyBuckets)
	// metricConnsAccepted / metricConnsOpen track TCP connections, not
	// requests — under slowloris or connection churn they diverge sharply
	// from serve.requests, which is exactly the signal that matters.
	metricConnsAccepted = metrics.GetCounter("serve.conns.accepted")
	metricConnsOpen     = metrics.GetGauge("serve.conns.open")
)

// connStateMetrics is the http.Server ConnState hook feeding the
// connection-level metrics.
func connStateMetrics(_ net.Conn, st http.ConnState) {
	switch st {
	case http.StateNew:
		metricConnsAccepted.Inc()
		metricConnsOpen.Add(1)
	case http.StateClosed, http.StateHijacked:
		metricConnsOpen.Add(-1)
	}
}

type options struct {
	topoPath    string
	addr        string
	logPath     string
	combined    bool
	sessPath    string
	shards      plan.Knob
	sessionGap  time.Duration
	expireEvery time.Duration
	backfill    string
	workers     plan.Knob
	depth       plan.Knob
	ckptPath    string
	ckptEvery   time.Duration
	queueCap    int
	shedMode    string
	trustFwd    bool

	maxInflight       int
	ipRate            float64
	ipBurst           int
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration
	reconcileEvery    time.Duration
}

func main() {
	var (
		o       options
		shards  = flag.String("shards", "auto", "ShardedTail shard count for -sessions: auto (planned) or a number (0 = all cores)")
		workers = flag.String("workers", "auto", "parse goroutines for -backfill and checkpoint replay: auto (planned), 0 sequential, -1 all cores")
		depth   = flag.String("stream-depth", "auto", "in-flight parsed chunks for replay: auto (planned) or a number (bounds replay heap, never changes output)")
	)
	flag.StringVar(&o.topoPath, "topology", "", "topology JSON written by simgen (required)")
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.logPath, "log", "", "access log file (default: stderr)")
	flag.BoolVar(&o.combined, "combined", false, "write Combined Log Format")
	flag.StringVar(&o.sessPath, "sessions", "", "sessionize traffic live, appending finalized sessions to this file")
	flag.DurationVar(&o.sessionGap, "session-gap", 0, "burst gap ρ: a user quiet this long ends their burst (0 = the paper's 10m; offline replays must use the same value)")
	flag.DurationVar(&o.expireEvery, "expire-every", 30*time.Second, "how often to expire quiet users' bursts for -sessions")
	flag.StringVar(&o.backfill, "backfill", "", "existing access logs to stream through the sessionizer before serving: paths/globs, gzip ok (needs -sessions)")
	flag.StringVar(&o.ckptPath, "checkpoint", "", "crash-recovery checkpoint file (needs -log and -sessions)")
	flag.DurationVar(&o.ckptEvery, "checkpoint-every", 10*time.Second, "how often to snapshot state for -checkpoint")
	flag.IntVar(&o.queueCap, "ingest-queue", 1024, "bounded ingest queue between the request path and the sessionizer (0 = synchronous)")
	flag.StringVar(&o.shedMode, "shed-mode", shed503, "what a full ingest queue does: 503 (refuse request, keep log == tail input) or drop-count (serve and log, drop from live tail)")
	flag.BoolVar(&o.trustFwd, "trust-forwarded", false, "log the first X-Forwarded-For address as the client (trusted proxies and loadgen only)")
	flag.IntVar(&o.maxInflight, "max-inflight", 0, "admission control: max concurrently handled requests, 503 above it (0 = unlimited)")
	flag.Float64Var(&o.ipRate, "ip-rate", 0, "admission control: per-client sustained requests/second, 429 above it (0 = unlimited; keyed like the access log, so -trust-forwarded applies)")
	flag.IntVar(&o.ipBurst, "ip-burst", 0, "admission control: per-client burst budget before -ip-rate applies (0 = round(-ip-rate), min 1)")
	flag.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 5*time.Second, "drop connections that take longer than this to send request headers (slowloris defense)")
	flag.DurationVar(&o.readTimeout, "read-timeout", 30*time.Second, "drop connections whose full request takes longer than this to read")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 60*time.Second, "close keep-alive connections idle longer than this")
	flag.DurationVar(&o.reconcileEvery, "reconcile-every", 2*time.Second, "how often to backfill drop-count-shed records from the log while idle (needs -shed-mode drop-count)")
	flag.Parse()
	if o.topoPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if o.shards, err = plan.ParseKnob("shards", *shards); err == nil {
		if o.workers, err = plan.ParseKnob("workers", *workers); err == nil {
			o.depth, err = plan.ParseKnob("stream-depth", *depth)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.ckptPath != "" {
		if o.logPath == "" || o.sessPath == "" {
			return fmt.Errorf("-checkpoint needs -log and -sessions (its offsets refer to those files)")
		}
		if o.backfill != "" {
			return fmt.Errorf("-checkpoint replaces -backfill (recovery replays the access log)")
		}
	}
	if o.backfill != "" && o.sessPath == "" {
		return fmt.Errorf("-backfill needs -sessions (there is nowhere to put the sessions)")
	}
	if o.shedMode != shed503 && o.shedMode != shedDropCount {
		return fmt.Errorf("-shed-mode must be %q or %q, got %q", shed503, shedDropCount, o.shedMode)
	}
	if o.queueCap < 0 {
		return fmt.Errorf("-ingest-queue must be >= 0, got %d", o.queueCap)
	}

	tf, err := os.Open(o.topoPath)
	if err != nil {
		return err
	}
	g, err := webgraph.Decode(bufio.NewReader(tf))
	tf.Close()
	if err != nil {
		return err
	}

	s := &server{g: g, combined: o.combined, logPath: o.logPath, sessPath: o.sessPath, shedMode: o.shedMode}
	out := io.Writer(os.Stderr)
	if o.logPath != "" {
		f, err := os.OpenFile(o.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			return err
		}
		s.logFile = f
		// Count bytes as they reach the file so the drop ledger can record
		// each shed record's exact span (the per-record flush under ingestMu
		// makes before/after counts bracket exactly one record).
		s.logCount = &countingFile{w: f, total: info.Size()}
		out = s.logCount
	}
	s.sink = webserver.NewWriterSink(newLogWriter(out, o.combined))

	if o.sessPath != "" {
		// Plan replay parallelism from the file that will actually be
		// replayed (checkpoint recovery replays -log, -backfill its own
		// file); without a replay the live plan's sequential parse stands.
		liveIn := plan.Input{SizeBytes: -1, Kind: plan.KindLive}
		shape := liveIn
		var replayPaths []string
		if o.ckptPath != "" {
			replayPaths = []string{o.logPath}
		} else if o.backfill != "" {
			var err error
			replayPaths, err = clf.ResolveLogPaths(o.backfill)
			if err != nil {
				return err
			}
		}
		var sample []byte
		if replayPaths != nil {
			shape = plan.StatPaths(replayPaths)
			sample = plan.SamplePaths(replayPaths)
		}
		pl, notes := plan.Resolve(shape, o.workers, o.shards, o.depth, plan.Auto, sample)
		if o.shards.Auto {
			// Shards answer request-handler contention, not the replay
			// file's single delivery goroutine.
			pl.Shards = plan.Decide(liveIn).Shards
		}
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, "serve:", n)
		}
		fmt.Fprintln(os.Stderr, "serve: plan:", pl)
		st, err := core.NewShardedTail(core.Config{Graph: g}.WithPlan(pl), o.sessionGap, pl.Shards)
		if err != nil {
			return err
		}
		sf, err := os.OpenFile(o.sessPath, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		defer sf.Close()
		// O_RDWR (not append-only) so the RetrySink can re-ingest and
		// truncate the journal once the session file recovers.
		dl, err := os.OpenFile(o.sessPath+".deadletter", os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		defer dl.Close()
		s.tee, err = newSessionTee(st, sf, dl)
		if err != nil {
			return err
		}

		if o.queueCap > 0 && o.shedMode == shed503 {
			// Journal timed-expiry cuts beside the session file: in 503 mode
			// the tail's input is a prefix-replay of the log, so replaying the
			// log with these cuts reproduces the live emission byte for byte
			// even with -expire-every on. Without a checkpoint the tail starts
			// fresh and old cut indices are meaningless, so truncate.
			mode := os.O_CREATE | os.O_RDWR
			if o.ckptPath == "" {
				mode |= os.O_TRUNC
			}
			cf, err := os.OpenFile(o.sessPath+".cuts", mode, 0o644)
			if err != nil {
				return err
			}
			defer cf.Close()
			s.cutsFile = cf
		}
		if o.queueCap > 0 && o.shedMode == shedDropCount && o.logPath != "" {
			s.drops = &dropLedger{}
		}

		if o.ckptPath != "" {
			s.ckpt = checkpoint.NewWriter(checkpoint.OS, o.ckptPath, o.ckptEvery)
			if err := s.recoverFromCheckpoint(); err != nil {
				return err
			}
		} else if o.backfill != "" {
			if err := s.tee.backfill(replayPaths); err != nil {
				return err
			}
		}
	}

	// The bounded ingest queue decouples the request path from the
	// sessionizer: one drainer goroutine batches queued records into the
	// tail and the session sink, outside every server lock.
	var drained sync.WaitGroup
	if s.tee != nil && o.queueCap > 0 {
		s.queue = newIngestQueue(o.queueCap)
		drained.Add(1)
		go func() {
			defer drained.Done()
			s.queue.drain(drainBatchMax, s.drainRecords)
		}()
	}

	mux := http.NewServeMux()
	mux.Handle("/debug/metrics", metrics.Handler())
	// Index also serves the named profiles (heap, allocs, goroutine, ...).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	site := webserver.AccessLogWith(webserver.NewSite(g), flushAfter{s},
		webserver.LogOptions{Now: time.Now, TrustForwardedFor: o.trustFwd})
	root := site
	if s.queue != nil && s.shedMode == shed503 {
		root = s.shedGate(site)
	}
	// Admission control sits outside the queue gate: a flooding client is
	// turned away (429) before it can even contend for a queue slot, and the
	// in-flight cap bounds handler concurrency before any work happens.
	// /debug/metrics and /debug/pprof/ stay outside both gates — observability
	// must survive the very overload it reports on.
	if o.maxInflight > 0 || o.ipRate > 0 {
		adm := webserver.NewAdmission(webserver.AdmissionConfig{
			MaxInFlight:       o.maxInflight,
			PerIPRate:         o.ipRate,
			PerIPBurst:        o.ipBurst,
			TrustForwardedFor: o.trustFwd,
		})
		root = adm.Wrap(root)
	}
	mux.Handle("/", timed(root))

	// Bind explicitly (rather than ListenAndServe) so :0 works: the soak
	// harness and scripts parse the actual bound address from this line.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("serve: listening on %s\n", ln.Addr())
	fmt.Printf("serving %s on %s (log: %s, format: %s, metrics: /debug/metrics, profiles: /debug/pprof/)\n",
		g, ln.Addr(), orStderr(o.logPath), format(o.combined))
	if s.tee != nil {
		fmt.Printf("sessionizing live to %s (%d shards, expire every %v)\n",
			o.sessPath, s.tee.st.Shards(), o.expireEvery)
	}
	if s.queue != nil {
		fmt.Printf("ingest queue: %d records, shed mode %s\n", o.queueCap, o.shedMode)
	}
	if s.ckpt != nil {
		fmt.Printf("checkpointing to %s every %v\n", o.ckptPath, o.ckptEvery)
	}

	// Background loops stop through done and are awaited before the final
	// flush, so a late Expire or checkpoint can never interleave with it.
	done := make(chan struct{})
	var wg sync.WaitGroup
	if s.tee != nil && o.expireEvery > 0 {
		wg.Add(1)
		go s.expireLoop(o.expireEvery, done, &wg)
	}
	if s.ckpt != nil {
		wg.Add(1)
		go s.checkpointLoop(o.ckptEvery, done, &wg)
	}
	if s.drops != nil && o.reconcileEvery > 0 {
		wg.Add(1)
		go s.reconcileLoop(o.reconcileEvery, done, &wg)
	}

	// The rotation listener stops through done like every other background
	// loop and is awaited in wg.Wait — it must not outlive the files it
	// reopens.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer signal.Stop(hup)
		for {
			select {
			case <-hup:
				fmt.Println("caught SIGHUP, reopening log files")
				s.rotate()
			case <-done:
				return
			}
		}
	}()

	// Serve until SIGINT/SIGTERM, then shut down gracefully: stop accepting,
	// drain the ingest queue, stop the background loops, and only then flush
	// the tail and take the final checkpoint. The read deadlines are the
	// slow-client defense: a connection that trickles its headers or body
	// (slowloris) is cut off instead of pinning a handler goroutine forever.
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: o.readHeaderTimeout,
		ReadTimeout:       o.readTimeout,
		IdleTimeout:       o.idleTimeout,
		ConnState:         connStateMetrics,
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if s.queue != nil {
			s.queue.stop(5*time.Second, s.drainRecords)
			drained.Wait()
		}
		close(done)
		wg.Wait()
		return err
	case sig := <-stop:
		fmt.Printf("caught %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr := srv.Shutdown(ctx)
		if s.drops != nil && s.queue != nil {
			// Last chance to settle the conservation accounting in-process:
			// no new traffic can arrive, so drain the drop ledger into the
			// still-running drainer before stopping the queue.
			s.reconcileFinal(5 * time.Second)
		}
		settled := true
		if s.queue != nil {
			settled = s.queue.stop(5*time.Second, s.drainRecords)
			drained.Wait()
			if !settled {
				fmt.Fprintln(os.Stderr, "serve: ingest queue did not settle; skipping final checkpoint (next start replays the log)")
			}
		}
		close(done)
		wg.Wait()
		if s.tee != nil {
			s.tee.st.Drain(s.tee.emit)
		}
		if s.ckpt != nil && settled {
			s.mu.Lock()
			if err := s.saveCheckpointLocked(); err != nil {
				fmt.Fprintln(os.Stderr, "serve: final checkpoint:", err)
			}
			s.mu.Unlock()
		}
		if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
			return shutdownErr
		}
		return nil
	}
}

// drainBatchMax bounds how many queued records one drainer pass hands the
// sessionizer: one tail lock round and one session write per batch.
const drainBatchMax = 256

// drainRecords is the drainer's processing function: push a batch into the
// tail, emit whatever sessions it finalized. It runs outside every server
// lock (only the drainer and the post-drainer stop path call it, never
// concurrently), so a checkpoint holding the exclusive lock can wait on the
// queue barrier while the drainer keeps making progress.
func (s *server) drainRecords(recs []clf.Record) {
	s.drainBuf = s.tee.st.PushBatchInto(s.drainBuf[:0], recs)
	s.tee.emit(s.drainBuf)
}

// shedGate admits a request only if the ingest queue has a free slot,
// reserving it for the record the access logger will enqueue once the
// request completes. A full queue refuses the request outright — 503, shed
// counter — before anything is served or logged, so the access log and the
// sessionizer's input stay identical and the server's memory stays bounded
// no matter how hard the load generator pushes.
func (s *server) shedGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.queue.tryReserve() {
			metricShed.Inc()
			// Jittered so the shed cohort doesn't re-thunder in lockstep.
			w.Header().Set("Retry-After", strconv.Itoa(webserver.RetryAfterSeconds()))
			http.Error(w, "overloaded: ingest queue full", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// timed records every request's wall-clock latency in the
// serve.request.seconds histogram; /debug/metrics reports its p50/p95/p99.
func timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		metricLatency.Observe(time.Since(start).Seconds())
	})
}

// server bundles the live state the request path, the background loops, and
// rotation/checkpointing contend over. mu is the consistency boundary: the
// request path and the expire loop hold it shared while mutating log +
// sessionizer + session file, checkpoint saves and SIGHUP rotation hold it
// exclusively, so every checkpoint observes the three artifacts at a single
// consistent cut.
type server struct {
	mu       sync.RWMutex
	g        *webgraph.Graph
	combined bool

	logPath  string
	logFile  *os.File      // nil when logging to stderr
	logCount *countingFile // counts log bytes for drop spans; nil on stderr
	sink     *webserver.WriterSink

	sessPath string
	tee      *sessionTee // nil without -sessions

	// drops is the drop-count reconciliation ledger; nil outside
	// {-shed-mode drop-count, -log, -sessions, queue > 0}.
	drops *dropLedger

	// cutsFile journals timed-expiry cuts (sessPath + ".cuts") so an offline
	// replay can reproduce periodic Expire emission exactly; nil unless the
	// live tail's input is a prefix-replay of the log (503 mode with a
	// queue), which is when byte-identity is claimed. cutSeq is the last
	// journaled (or restored) cut's sequence number; both are guarded by mu
	// (cuts are written under the exclusive lock).
	cutsFile *os.File
	cutSeq   int64

	// ingestMu serializes {log append, log flush, queue enqueue} so queue
	// order is exactly log order: the live tail's input is then a
	// prefix-replay of the access log, which is what makes crash recovery
	// (replay the log) reproduce the live run byte for byte.
	ingestMu sync.Mutex
	queue    *ingestQueue // nil without -sessions or with -ingest-queue 0
	shedMode string
	// drainBuf is the drainer's recycled session output buffer; only
	// drainRecords touches it, and its callers never run concurrently.
	drainBuf []session.Session

	ckpt *checkpoint.Writer // nil without -checkpoint
}

func newLogWriter(out io.Writer, combined bool) *clf.Writer {
	if combined {
		return clf.NewCombinedWriter(out)
	}
	return clf.NewWriter(out)
}

// recoverFromCheckpoint brings the sessionizer back to a state consistent
// with the access log: restore the latest valid snapshot, truncate the
// session file to the recorded offset (dropping the crashed run's
// post-checkpoint writes the replay will re-emit), and replay the log from
// the recorded offset. A missing, corrupt, or stale checkpoint degrades to
// a full replay from offset zero — never to loading bad state.
func (s *server) recoverFromCheckpoint() error {
	ck, reason, err := checkpoint.Resume(checkpoint.OS, s.ckpt.Path())
	if err != nil {
		return err
	}
	if reason != "" {
		fmt.Fprintln(os.Stderr, "serve: checkpoint unusable, replaying full log:", reason)
	}
	if err := s.repairLogTail(); err != nil {
		return err
	}
	logInfo, err := s.logFile.Stat()
	if err != nil {
		return err
	}
	sessInfo, err := s.tee.f.Stat()
	if err != nil {
		return err
	}
	var logOff, sinkOff int64
	restored := false
	if ck != nil {
		switch {
		case ck.LogPath != "" && ck.LogPath != s.logPath:
			fmt.Fprintf(os.Stderr, "serve: checkpoint was for %s, -log is %s, replaying full log\n",
				ck.LogPath, s.logPath)
		case ck.LogOffset > logInfo.Size() || ck.SinkOffset > sessInfo.Size():
			fmt.Fprintf(os.Stderr, "serve: checkpoint is ahead of %s/%s (rotated?), replaying full log\n",
				s.logPath, s.sessPath)
		default:
			if err := s.tee.st.Restore(ck.Tail); err != nil {
				fmt.Fprintln(os.Stderr, "serve: checkpoint rejected, replaying full log:", err)
			} else {
				logOff, sinkOff = ck.LogOffset, ck.SinkOffset
				restored = true
			}
		}
	}
	if err := s.tee.resetTo(sinkOff); err != nil {
		return err
	}

	// Load the cut journal: cuts newer than the snapshot (Seq > CutSeq) are
	// re-applied during replay at their recorded record boundaries, so the
	// replayed suffix interleaves timed-expiry emission exactly as the
	// crashed run did. New cuts continue the journal's numbering.
	var pendingCuts []core.ExpiryCut
	if s.cutsFile != nil {
		if _, err := s.cutsFile.Seek(0, io.SeekStart); err != nil {
			return err
		}
		allCuts, err := core.ReadCuts(s.cutsFile)
		if err != nil {
			return fmt.Errorf("read cut journal: %w", err)
		}
		if _, err := s.cutsFile.Seek(0, io.SeekEnd); err != nil {
			return err
		}
		var appliedSeq int64
		if restored {
			appliedSeq = ck.CutSeq
		}
		pendingCuts = core.CutsAfter(allCuts, appliedSeq)
		for _, c := range allCuts {
			if c.Seq > s.cutSeq {
				s.cutSeq = c.Seq
			}
		}
		if restored && s.cutSeq < ck.CutSeq {
			fmt.Fprintf(os.Stderr, "serve: cut journal ends at seq %d but checkpoint recorded %d (journal lost?); continuing\n",
				s.cutSeq, ck.CutSeq)
			s.cutSeq = ck.CutSeq
		}
	}
	if s.drops != nil && restored {
		s.drops.restore(ck.DropSpans, logOff)
	}

	// Replay through the zero-copy source reader (mmap for the on-disk
	// log), checkpointing as we go so a crash during a long recovery does
	// not restart it from scratch. With pending cuts the mid-replay
	// checkpoints are skipped — a snapshot taken between cuts cannot yet
	// say how many of them it contains — so that (rare) recovery shape
	// restarts from the previous checkpoint if interrupted.
	base := int64(0)
	if restored {
		base = int64(ck.Tail.Stats.Records)
	}
	progress := func(pos clf.FilePos) error {
		s.ckpt.MaybeSave(func() *checkpoint.Checkpoint {
			return s.buildCheckpoint(pos.Offset)
		})
		return nil
	}
	if len(pendingCuts) > 0 {
		progress = nil
	}
	malformed, err := s.tee.st.IngestFilesCuts([]string{s.logPath}, clf.FilePos{Offset: logOff}, base, pendingCuts, s.tee.emit, progress)
	if err != nil {
		return fmt.Errorf("replay %s: %w", s.logPath, err)
	}
	if err := s.ckpt.Save(s.buildCheckpoint(logInfo.Size())); err != nil {
		fmt.Fprintln(os.Stderr, "serve: checkpoint:", err)
	}
	stats := s.tee.st.Stats()
	fmt.Printf("recovered from %s: replayed %d bytes of %s (records=%d malformed=%d sessions=%d)\n",
		s.ckpt.Path(), logInfo.Size()-logOff, s.logPath, stats.Records, malformed, stats.Sessions)
	return nil
}

// repairLogTail terminates a torn final line a crashed run may have left in
// the access log, so freshly served records do not concatenate onto it.
func (s *server) repairLogTail() error {
	info, err := s.logFile.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		return nil
	}
	f, err := os.Open(s.logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, info.Size()-1); err != nil {
		return err
	}
	if last[0] != '\n' {
		if _, err := s.logFile.WriteString("\n"); err != nil {
			return err
		}
	}
	return nil
}

// buildCheckpoint assembles a checkpoint at the given access-log offset. The
// caller guarantees no concurrent pushes (exclusive lock, or single-threaded
// recovery), so the session-file sync, the offset, and the snapshot are one
// consistent cut.
func (s *server) buildCheckpoint(logOff int64) *checkpoint.Checkpoint {
	sinkOff, err := s.tee.syncSize()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve: session file sync:", err)
	}
	ck := &checkpoint.Checkpoint{
		LogOffset:  logOff,
		LogPath:    s.logPath,
		SinkOffset: sinkOff,
		Tail:       s.tee.st.Snapshot(),
		CutSeq:     s.cutSeq,
	}
	if s.drops != nil {
		ck.DropSpans = s.drops.snapshot()
	}
	return ck
}

// saveCheckpointLocked drains the ingest queue, then flushes and syncs the
// access log and snapshots. Caller holds s.mu exclusively, which freezes the
// request path — the barrier therefore waits on a fixed amount of queued
// work, and the snapshot sees every logged record reflected in the tail and
// the session file. Without the barrier a logged-but-still-queued record
// would be inside the checkpoint's log offset but absent from its tail
// snapshot, and recovery would lose it.
func (s *server) saveCheckpointLocked() error {
	if s.queue != nil {
		s.queue.barrier()
	}
	if err := s.sink.Flush(); err != nil {
		return err
	}
	if err := s.logFile.Sync(); err != nil {
		return err
	}
	if s.cutsFile != nil {
		// The snapshot's CutSeq refers into the journal; make sure the
		// journal is at least as durable as the checkpoint that cites it.
		if err := s.cutsFile.Sync(); err != nil {
			return err
		}
	}
	info, err := s.logFile.Stat()
	if err != nil {
		return err
	}
	return s.ckpt.Save(s.buildCheckpoint(info.Size()))
}

// checkpointLoop periodically snapshots state until done closes.
func (s *server) checkpointLoop(every time.Duration, done chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.mu.Lock()
			err := s.saveCheckpointLocked()
			s.mu.Unlock()
			if err != nil {
				fmt.Fprintln(os.Stderr, "serve: checkpoint:", err)
			}
		case <-done:
			return
		}
	}
}

// expireLoop periodically finalizes quiet users so a user who leaves still
// gets their last session written. Each tick freezes ingestion at an exact
// record boundary — exclusive lock (no request is mid-log-append), then the
// queue barrier (every logged record is in the tail) — before running
// Expire. That boundary is what makes timed expiry replayable: when the cut
// journal is active, a tick that emitted sessions is recorded as (seq,
// tail-record-count, cutoff), and an offline replay applying Expire(cutoff)
// after exactly that many records reproduces the live emission byte for
// byte. Ticks that emit nothing are not journaled — an empty Expire changes
// no output-relevant state. The stoppable ticker is torn down (and awaited)
// before the final flush, so a late Expire can never interleave with it.
func (s *server) expireLoop(every time.Duration, done chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.mu.Lock()
			if s.queue != nil {
				s.queue.barrier()
			}
			now := time.Now()
			out := s.tee.st.Expire(now)
			if len(out) > 0 {
				s.tee.emit(out)
				if s.cutsFile != nil {
					s.cutSeq++
					cut := core.ExpiryCut{Seq: s.cutSeq, Records: int64(s.tee.st.Stats().Records), At: now}
					if err := core.AppendCut(s.cutsFile, cut); err != nil {
						fmt.Fprintln(os.Stderr, "serve: cut journal:", err)
					}
				}
			}
			s.mu.Unlock()
		case <-done:
			return
		}
	}
}

// rotate reopens the access-log and session files in place (SIGHUP /
// logrotate). Under the exclusive lock no request is mid-write, so no
// record or session is dropped; a fresh checkpoint is saved immediately
// because the old one's offsets refer to the rotated-away files.
func (s *server) rotate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queue != nil {
		// Settle records logged to the outgoing file before swapping, so the
		// old log and the sessions emitted from it rotate as a pair.
		s.queue.barrier()
	}
	if s.logFile != nil {
		if err := s.sink.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: log flush on rotate:", err)
		}
		f, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve: reopen log:", err)
		} else {
			info, statErr := f.Stat()
			if statErr != nil {
				fmt.Fprintln(os.Stderr, "serve: reopen log stat:", statErr)
				f.Close()
			} else {
				old := s.logFile
				s.logFile = f
				s.logCount = &countingFile{w: f, total: info.Size()}
				s.sink.Reset(newLogWriter(s.logCount, s.combined))
				old.Close()
				if s.drops != nil {
					// Pending drop spans reference byte offsets in the
					// rotated-away file; reading those offsets from the fresh
					// file would backfill the wrong records. Count them lost
					// (the rotated log still holds them for offline recovery).
					if lost := s.drops.flushLost(); lost > 0 {
						fmt.Fprintf(os.Stderr, "serve: rotation orphaned %d unreconciled dropped records (recover them offline from the rotated log)\n", lost)
					}
				}
			}
		}
	}
	if s.tee != nil {
		if err := s.tee.rotate(s.sessPath); err != nil {
			fmt.Fprintln(os.Stderr, "serve: reopen sessions:", err)
		}
	}
	if s.ckpt != nil {
		if err := s.saveCheckpointLocked(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: checkpoint after rotate:", err)
		}
	}
}

// sessionTee pushes every logged record into a ShardedTail and appends
// finalized sessions to a file through a RetrySink: transient write
// failures back off and retry, persistent ones are journaled to the
// dead-letter file, and every outcome is counted. The file is managed by
// known-good offset — before each attempt the file is truncated back to the
// last complete batch, so a torn write from a failed attempt is healed by
// its own retry instead of corrupting the file.
type sessionTee struct {
	st   *core.ShardedTail
	sink *core.RetrySink

	mu   sync.Mutex
	f    *os.File
	good int64 // session-file bytes known to hold only complete batches
}

func newSessionTee(st *core.ShardedTail, f *os.File, deadLetter io.Writer) (*sessionTee, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	t := &sessionTee{st: st, f: f, good: info.Size()}
	t.sink = core.NewRetrySink(t.writeBatch, core.RetryOptions{DeadLetter: deadLetter})
	return t, nil
}

// push feeds one record and writes whatever sessions it finalized.
func (t *sessionTee) push(rec clf.Record) { t.emit(t.st.Push(rec)) }

// emit appends finalized sessions to the sessions file, with retries.
func (t *sessionTee) emit(sessions []session.Session) { t.sink.Emit(sessions) }

// writeBatch is the RetrySink's write function: one batch, atomic at the
// known-good offset.
func (t *sessionTee) writeBatch(batch []session.Session) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := func() error {
		if err := t.f.Truncate(t.good); err != nil {
			return err
		}
		if _, err := t.f.Seek(t.good, io.SeekStart); err != nil {
			return err
		}
		if err := session.WriteAll(t.f, batch); err != nil {
			return err
		}
		off, err := t.f.Seek(0, io.SeekCurrent)
		if err != nil {
			return err
		}
		t.good = off
		return nil
	}()
	if err != nil {
		metricSessionWriteErrors.Inc()
	}
	return err
}

// resetTo truncates the session file to off (recovery: discard everything
// the replay will re-emit).
func (t *sessionTee) resetTo(off int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.f.Truncate(off); err != nil {
		return err
	}
	if _, err := t.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	t.good = off
	return nil
}

// syncSize flushes the session file to stable storage and returns its
// known-good size — the SinkOffset a checkpoint records.
func (t *sessionTee) syncSize() (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.good, t.f.Sync()
}

// rotate reopens the session file at path (SIGHUP). Caller holds the
// server's exclusive lock, so no emit is in flight.
func (t *sessionTee) rotate(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(info.Size(), io.SeekStart); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	old := t.f
	t.f = f
	t.good = info.Size()
	t.mu.Unlock()
	return old.Close()
}

// backfill streams an existing access log set — plain, gzip, or a rotated
// sequence — through the sessionizer before the server starts, in bounded
// heap regardless of the logs' size. Bursts still open at the end of the
// history stay buffered so live traffic from the same users continues them
// seamlessly.
func (t *sessionTee) backfill(paths []string) error {
	malformed, err := t.st.IngestFiles(paths, clf.FilePos{}, t.emit, nil)
	if err != nil {
		return fmt.Errorf("backfill %s: %w", strings.Join(paths, ","), err)
	}
	stats := t.st.Stats()
	fmt.Printf("backfilled %s: records=%d malformed=%d sessions=%d (open bursts carry into live traffic)\n",
		strings.Join(paths, ","), stats.Records, malformed, stats.Sessions)
	return nil
}

// flushAfter flushes the log after every record so tail -f works, and tees
// each record into the live sessionizer when one is configured. The whole
// per-record sequence runs under the server's shared lock so checkpoints
// never observe a half-applied request.
type flushAfter struct {
	s *server
}

// Record implements webserver.LogSink.
func (f flushAfter) Record(r clf.Record) {
	// CLF timestamps have second precision, and the access log is the
	// source of truth crash recovery replays from — so the live sessionizer
	// must see exactly the timestamp a replay would parse, or sessions
	// reconstructed across a restart could split differently.
	r.Time = r.Time.Truncate(time.Second)
	f.s.mu.RLock()
	defer f.s.mu.RUnlock()
	metricRequests.Inc()
	f.s.ingestMu.Lock()
	var spanStart int64
	if f.s.logCount != nil {
		spanStart = f.s.logCount.total
	}
	// The sink latches its first error until a rotation resets it, so a
	// failure is news only when the latch was clear before this record.
	wasFailing := f.s.sink.Err() != nil
	f.s.sink.Record(r)
	err := f.s.sink.Flush()
	if q := f.s.queue; q != nil {
		if f.s.shedMode == shedDropCount {
			// The slot is claimed here, not at admission: the request was
			// served and logged either way, only the live tail misses out.
			if q.tryReserve() {
				q.enqueue(r)
			} else {
				metricShed.Inc()
				if f.s.drops != nil && err == nil {
					// The record's exact bytes in the log: the per-record
					// flush above just pushed them through the counter.
					f.s.drops.record(spanStart, f.s.logCount.total)
				}
			}
		} else {
			// 503 mode: shedGate reserved the slot before the request ran.
			q.enqueue(r)
		}
	}
	f.s.ingestMu.Unlock()
	if err != nil {
		metricLogWriteErrors.Inc()
		if !wasFailing {
			fmt.Fprintln(os.Stderr, "serve: log write:", err, "(later failures are only counted, in serve.log_write_errors, until the log is reopened)")
		}
	}
	if f.s.tee != nil && f.s.queue == nil {
		// -ingest-queue 0: the legacy synchronous path, sessionizing on the
		// request goroutine (the tail is concurrency-safe, so this stays
		// outside ingestMu).
		f.s.tee.push(r)
	}
}

func orStderr(p string) string {
	if p == "" {
		return "stderr"
	}
	return p
}

func format(combined bool) string {
	if combined {
		return "combined"
	}
	return "common"
}
