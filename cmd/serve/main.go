// Command serve runs a topology as a real website over HTTP, writing a
// Common or Combined Log Format access log as traffic arrives — a live
// substrate for the reactive pipeline. Browse it, crawl it, or point load
// generators at it; then feed the log to cmd/sessionize.
//
// Usage:
//
//	serve -topology topology.json [-addr :8080] [-log access.log] [-combined]
//	      [-sessions sessions.txt] [-expire-every 30s]
//	      [-checkpoint state.ckpt] [-checkpoint-every 10s]
//	      [-trust-forwarded]
//
// The log flushes on every request, and Ctrl-C (SIGINT/SIGTERM) shuts down
// gracefully, flushing every still-buffered session when -sessions is active
// (use a file and tail -f to watch). SIGHUP reopens the -log and -sessions
// files for logrotate-style rotation without dropping records. Runtime
// counters — requests served, log lines read back, write errors, sessions
// held — are exposed as plain text at
// /debug/metrics, and CPU, heap, allocation, goroutine and execution trace
// profiles of the running server at /debug/pprof/ (go tool pprof
// http://host/debug/pprof/profile?seconds=10).
//
// With -sessions (which needs -log) the server sessionizes its own traffic
// live, from the access log it writes, and one goroutine — the owner,
// live.go — does all of it: it reads the log from its own offset, alone
// touches the core.Tail (Smart-SRA, no lock: nothing else may), appends
// finalized sessions to the session file, expires quiet users every
// -expire-every, journals those expiry cuts, checkpoints and rotates. A
// handler appends its line to the log and flushes under the log lock, and
// that is all: the owner reads what was appended every 100 ms, and before
// every other message it takes. The log is the only queue between them, so
// the live tail's input is the log by construction. The owner takes the log
// lock only to rotate. A session write that fails is held, and until the
// file takes it the owner reads no more of the log: the log is the backlog
// of the session file too, so no later session lands before a held one, and
// each message the owner takes — a read tick at the least — retries the
// write.
//
// Nothing behind the log sheds: a request is refused, if at all, by
// admission control (-max-inflight, -ip-rate) before it is served or logged.
// Per-request latency lands in the serve.request.seconds histogram, whose
// p50/p95/p99 show up at /debug/metrics.
//
// -trust-forwarded keys the client identity off the first X-Forwarded-For
// address when the header is present — required when traffic arrives through
// a trusted proxy or from cmd/loadgen, which replays many simulated users
// over one loopback pool. Leave it off for directly exposed servers: the
// header is client-controlled.
//
// With -checkpoint the owner periodically snapshots the sessionizer's
// open-burst state together with the access-log and session-file offsets
// (atomic, CRC-protected writes). On restart the server restores the
// snapshot, truncates the session file to the recorded offset, and replays
// the access log from the recorded offset — sessions across a crash are
// emitted exactly once. A corrupt or stale checkpoint is detected and
// recovery falls back to a full replay of the access log. -checkpoint
// needs -log and -sessions (the offsets refer to those files). The owner's
// sessionizing, recovery and checkpoints are checkpoint.Run, the streaming
// run sessionize -stream drives over a log that ends.
package main

import (
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
	"sync"
	"syscall"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/metrics"
	"smartsra/internal/webgraph"
	"smartsra/internal/webserver"
)

var (
	// metricRequests counts access-log records written by this server.
	metricRequests = metrics.GetCounter("serve.requests")
	// metricLogWriteErrors counts requests whose access-log write failed —
	// silent data loss made alertable.
	metricLogWriteErrors = metrics.GetCounter("serve.log_write_errors")
	// metricSessionWriteErrors counts failed session-file writes: the one
	// that starts an outage and every retry of the held sessions in it.
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
	sessionGap  time.Duration
	expireEvery time.Duration
	ckptPath    string
	ckptEvery   time.Duration
	trustFwd    bool

	maxInflight       int
	ipRate            float64
	ipBurst           int
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration
}

// validate rejects flag combinations that cannot work before any file is
// opened.
func (o options) validate() error {
	if o.sessPath != "" && o.logPath == "" {
		return fmt.Errorf("-sessions needs -log (the live sessionizer reads the access log)")
	}
	if o.ckptPath != "" && (o.logPath == "" || o.sessPath == "") {
		return fmt.Errorf("-checkpoint needs -log and -sessions (its offsets refer to those files)")
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.topoPath, "topology", "", "topology JSON written by simgen (required)")
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.logPath, "log", "", "access log file (default: stderr)")
	flag.BoolVar(&o.combined, "combined", false, "write Combined Log Format")
	flag.StringVar(&o.sessPath, "sessions", "", "sessionize the access log live, appending finalized sessions to this file (needs -log)")
	flag.DurationVar(&o.sessionGap, "session-gap", 0, "burst gap ρ: a user quiet this long ends their burst (0 = the paper's 10m; offline replays must use the same value)")
	flag.DurationVar(&o.expireEvery, "expire-every", 30*time.Second, "how often to expire quiet users' bursts for -sessions")
	flag.StringVar(&o.ckptPath, "checkpoint", "", "crash-recovery checkpoint file (needs -log and -sessions)")
	flag.DurationVar(&o.ckptEvery, "checkpoint-every", 10*time.Second, "how often to snapshot state for -checkpoint")
	flag.BoolVar(&o.trustFwd, "trust-forwarded", false, "log the first X-Forwarded-For address as the client (trusted proxies and loadgen only)")
	flag.IntVar(&o.maxInflight, "max-inflight", 0, "admission control: max concurrently handled requests, 503 above it (0 = unlimited)")
	flag.Float64Var(&o.ipRate, "ip-rate", 0, "admission control: per-client sustained requests/second, 429 above it (0 = unlimited; keyed like the access log, so -trust-forwarded applies)")
	flag.IntVar(&o.ipBurst, "ip-burst", 0, "admission control: per-client burst budget before -ip-rate applies (0 = round(-ip-rate), min 1)")
	flag.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 5*time.Second, "drop connections that take longer than this to send request headers (slowloris defense)")
	flag.DurationVar(&o.readTimeout, "read-timeout", 30*time.Second, "drop connections whose full request takes longer than this to read")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 60*time.Second, "close keep-alive connections idle longer than this")
	flag.Parse()
	if o.topoPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// run wires the process: files and recovery (newOwner), the listener, the
// owner's tickers and signals, then serves until a signal or a listener
// error.
func run(o options) error {
	own, err := newOwner(o)
	if err != nil {
		return err
	}
	defer own.close()
	s := own.s

	// Bind explicitly (rather than ListenAndServe) so :0 works: the soak
	// harness and scripts parse the actual bound address from this line.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("serve: listening on %s\n", ln.Addr())
	fmt.Printf("serving %s on %s (log: %s, format: %s, metrics: /debug/metrics, profiles: /debug/pprof/)\n",
		s.g, ln.Addr(), orStderr(o.logPath), format(o.combined))
	if own.stream != nil {
		fmt.Printf("sessionizing %s live to %s (expire every %v)\n", o.logPath, o.sessPath, o.expireEvery)
	}
	if own.stream != nil && own.stream.Ckpt != nil {
		fmt.Printf("checkpointing to %s every %v\n", o.ckptPath, o.ckptEvery)
	}

	// Timers are messages to the owner like everything else. A period of zero
	// or less gets time.Tick's nil channel: a select case that never fires.
	if own.stream != nil {
		own.readTick = time.Tick(readEvery)
		own.expireTick = time.Tick(o.expireEvery)
	}
	if own.stream != nil && own.stream.Ckpt != nil {
		own.ckptTick = time.Tick(o.ckptEvery)
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	own.hup = hup
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	// The read deadlines are the slow-client defense: a connection that
	// trickles its headers or body (slowloris) is cut off instead of pinning
	// a handler goroutine forever.
	return own.serve(&http.Server{
		Handler:           s.handler(o),
		ReadHeaderTimeout: o.readHeaderTimeout,
		ReadTimeout:       o.readTimeout,
		IdleTimeout:       o.idleTimeout,
		ConnState:         connStateMetrics,
	}, ln, stop)
}

// serve starts the owner and the HTTP server and returns when a stop signal
// or a listener error ends the run. Both exits end in the owner's one stop
// sequence — read the log to its end, flush every open burst, final
// checkpoint — so neither loses the open sessions.
func (o *owner) serve(srv *http.Server, ln net.Listener, stop <-chan os.Signal) error {
	go o.run()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var err error
	select {
	case err = <-errc:
	case sig := <-stop:
		fmt.Printf("caught %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// A handler still running past the deadline may log after the
		// owner's last read; that line is past the final checkpoint's
		// offset, so the next start replays it.
		if err = srv.Shutdown(ctx); errors.Is(err, context.DeadlineExceeded) {
			err = nil
		}
	}
	o.stop()
	return err
}

// handler builds the request path: pages behind the access logger and
// admission control, with the debug endpoints beside them.
func (s *server) handler(o options) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/metrics", metrics.Handler())
	// Index also serves the named profiles (heap, allocs, goroutine, ...).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	root := webserver.AccessLogWith(webserver.NewSite(s.g), s,
		webserver.LogOptions{TrustForwardedFor: o.trustFwd})
	// Admission control is the one place a request is refused: a flooding
	// client is turned away (429) and the in-flight cap bounds handler
	// concurrency (503) before anything is served or logged. /debug/metrics
	// and /debug/pprof/ stay outside it — observability must survive the very
	// overload it reports on.
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
	return mux
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

// server is what the request path can reach: the access log. Everything
// downstream of the log — tail, session file, cut journal, checkpoints —
// belongs to the owner (live.go) and is not reachable from here.
type server struct {
	g        *webgraph.Graph
	combined bool

	// logMu is the log lock, the only lock on the live path. A handler holds
	// it for {log append, flush}, so while the owner holds it every appended
	// line is in the file — what a rotation needs before it reads the old
	// file to its end and swaps the writer. The owner reads the log without
	// it otherwise; rotating is the one time a handler waits on the owner.
	logMu   sync.Mutex
	logPath string
	logFile *os.File // nil when logging to stderr; synced by the owner
	sink    *webserver.WriterSink
}

func newLogWriter(out io.Writer, combined bool) *clf.Writer {
	if combined {
		return clf.NewCombinedWriter(out)
	}
	return clf.NewWriter(out)
}

// Record implements webserver.LogSink, the access logger's sink: it appends
// and flushes each record so tail -f works — and so the owner, which reads
// the same file on its own tick, sees it.
func (s *server) Record(r clf.Record) {
	metricRequests.Inc()
	s.logMu.Lock()
	// The sink latches its first error until a rotation resets it, so a
	// failure is news only when the latch was clear before this record.
	wasFailing := s.sink.Err() != nil
	s.sink.Record(r)
	err := s.sink.Flush()
	s.logMu.Unlock()
	if err != nil {
		metricLogWriteErrors.Inc()
		if !wasFailing {
			fmt.Fprintln(os.Stderr, "serve: log write:", err, "(later failures are only counted, in serve.log_write_errors, until the log is reopened)")
		}
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
