// Package loadgen replays a simulated-user request schedule against a live
// HTTP server in real time. It is the measurement half of the serve hardening
// loop: the simulator decides who fetches what and when, loadgen turns that
// schedule into paced HTTP traffic, and per-request latencies land in
// quantile-capable histograms so a run reports p50/p99/p999 and the shed
// rate instead of a bare throughput number.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/metrics"
	"smartsra/internal/simulator"
)

// Config configures one replay.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Requests is the schedule to replay, globally time-ordered
	// (simulator.Result.Schedule output).
	Requests []simulator.Request
	// Speedup compresses simulated time: a request due N simulated seconds
	// into the schedule is issued N/Speedup real seconds after start. Zero or
	// negative means no pacing — every request is issued as soon as a worker
	// is free (maximum pressure).
	Speedup float64
	// Workers is the number of concurrent in-flight requests (default 8).
	Workers int
}

// requestTimeout bounds each replayed request.
const requestTimeout = 10 * time.Second

// Tally counts the outcomes of a set of requests. Every request sent lands
// in exactly one of Accepted, Shed, Rejected and Errors.
type Tally struct {
	// Sent counts requests handed to the HTTP client.
	Sent int64
	// Accepted counts 2xx and 3xx responses (the site's "/" start page
	// answers 302, and the client follows no redirect).
	Accepted int64
	// Shed counts 503 responses — the server's explicit load-shedding signal.
	Shed int64
	// Rejected counts 429 responses — per-client admission control saying
	// this source specifically is over budget (distinct from 503's "the
	// server is saturated").
	Rejected int64
	// Errors counts transport failures and any other status.
	Errors int64
}

// count classifies one request by what the HTTP client returned for it,
// draining and closing the response body. It is safe for concurrent use.
func (t *Tally) count(resp *http.Response, err error) {
	atomic.AddInt64(&t.Sent, 1)
	if err != nil {
		atomic.AddInt64(&t.Errors, 1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		atomic.AddInt64(&t.Shed, 1)
	case resp.StatusCode == http.StatusTooManyRequests:
		atomic.AddInt64(&t.Rejected, 1)
	case resp.StatusCode >= 200 && resp.StatusCode < 400:
		atomic.AddInt64(&t.Accepted, 1)
	default:
		atomic.AddInt64(&t.Errors, 1)
	}
}

// conserves reports whether every request sent was classified exactly once.
func (t Tally) conserves() bool {
	return t.Sent > 0 && t.Accepted+t.Shed+t.Rejected+t.Errors == t.Sent
}

func (t Tally) String() string {
	return fmt.Sprintf("sent=%d accepted=%d shed=%d rejected=%d errors=%d",
		t.Sent, t.Accepted, t.Shed, t.Rejected, t.Errors)
}

// newClient returns a client that follows no redirect, so a redirect is the
// outcome of the request that got it.
func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

// Report is the outcome of one replay.
type Report struct {
	Tally
	// Duration is the wall-clock span of the replay.
	Duration time.Duration
	// Latency holds the full client-side latency distribution of every
	// request that produced an HTTP response.
	Latency metrics.HistogramStats
}

// String summarizes the report for logs.
func (r Report) String() string {
	shedRate := 0.0
	if r.Sent > 0 {
		shedRate = float64(r.Shed) / float64(r.Sent)
	}
	return fmt.Sprintf("%s shed_rate=%.3f p50=%s p99=%s p999=%s in %s",
		r.Tally, shedRate,
		secs(r.Latency.Quantile(0.50)), secs(r.Latency.Quantile(0.99)),
		secs(r.Latency.Quantile(0.999)), r.Duration.Round(time.Millisecond))
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond)
}

// Run replays cfg.Requests against cfg.BaseURL and blocks until every
// request completed or ctx is cancelled. The error reports setup problems
// only; per-request failures are counted, not returned, because under
// deliberate overload failures are data.
func Run(ctx context.Context, cfg Config) (Report, error) {
	if cfg.BaseURL == "" {
		return Report{}, fmt.Errorf("loadgen: no base URL")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}
	// The histogram is this run's own: a registry shared between runs would
	// mix their latencies.
	reg := metrics.NewRegistry()
	latency := reg.GetHistogramBuckets("loadgen.latency.seconds", metrics.LatencyBuckets)
	client := newClient(requestTimeout)
	defer client.CloseIdleConnections()

	var rep Report
	work := make(chan simulator.Request)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.BaseURL+q.URI, nil)
				if err != nil {
					rep.count(nil, err)
					continue
				}
				req.Header.Set("User-Agent", "smartsra-loadgen/1.0")
				// The simulated user's identity rides X-Forwarded-For so a
				// server started with -trust-forwarded keys sessions by
				// simulated user, not by the one loopback address all
				// workers share.
				req.Header.Set("X-Forwarded-For", q.User)
				if q.Referer != "" && q.Referer != clf.NoField {
					req.Header.Set("Referer", q.Referer)
				}
				start := time.Now()
				resp, err := client.Do(req)
				rep.count(resp, err)
				if err == nil {
					latency.Observe(time.Since(start).Seconds())
				}
			}
		}()
	}

	// Dispatch in schedule order, pacing against the first request's
	// simulated time. A request whose due time has passed (slow server, tight
	// speedup) goes out immediately — the schedule lags rather than drops.
	begin := time.Now()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
dispatch:
	for _, q := range cfg.Requests {
		if cfg.Speedup > 0 {
			due := begin.Add(time.Duration(float64(q.At.Sub(cfg.Requests[0].At)) / cfg.Speedup))
			if wait := time.Until(due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-timer.C:
				case <-ctx.Done():
					break dispatch
				}
			}
		}
		select {
		case work <- q:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	rep.Duration = time.Since(begin)
	rep.Latency = reg.Snapshot().Histograms["loadgen.latency.seconds"]
	return rep, ctx.Err()
}
