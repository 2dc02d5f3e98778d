// Chaos mode: the adversarial half of a serve soak. Where Run replays
// well-behaved simulated users, RunChaos attacks the same server the way a
// hostile or broken internet does — slowloris connections that trickle
// headers forever, single-source floods, connection churn, and malformed
// request lines — and classifies how the server defended itself. The
// classified counts are data; Check holds them (and the server's own
// /debug/metrics) to the defences after the run.
package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The chaos run's adversaries, one fixed mix: enough of each to see the
// defence that meets it, small enough for a smoke test.
const (
	// slowConns concurrent slow connections each send a valid request line
	// and then drip one header every slowInterval without ever finishing. A
	// hardened server cuts them off with its read-header deadline.
	slowConns    = 8
	slowInterval = 500 * time.Millisecond
	// floodIPs distinct hostile sources each send floodPerIP back-to-back
	// requests, each bounded by floodTimeout. Each rides its own
	// X-Forwarded-For address so per-IP admission sees them as separate
	// clients.
	floodIPs     = 4
	floodPerIP   = 50
	floodTimeout = 5 * time.Second
	// churnCycles connect-then-immediately-disconnect cycles exercise
	// connection accounting without ever sending a byte.
	churnCycles = 100
	// malformedConns connections send a garbage request line. The server
	// should answer 400 or hang up, never log or ingest them.
	malformedConns = 25
	// chaosDuration bounds the whole run: slowloris connections the server
	// never closes are abandoned at the deadline.
	chaosDuration = 15 * time.Second
)

// ChaosReport classifies what happened to each adversary.
type ChaosReport struct {
	// SlowOpened counts slowloris connections established; SlowServerClosed
	// counts those the server terminated (read-header deadline) before the
	// run deadline. Opened == ServerClosed means the defense held.
	SlowOpened, SlowServerClosed int64
	// Flood classifies the flood's requests as Run classifies the replay's.
	Flood Tally
	// ChurnCycles counts completed connect-disconnect cycles.
	ChurnCycles int64
	// MalformedSent counts garbage request lines written; MalformedRefused
	// counts those answered with 4xx or an immediate hangup.
	MalformedSent, MalformedRefused int64
	// Duration is the wall-clock span of the chaos run.
	Duration time.Duration
}

// String summarizes the report for logs.
func (r ChaosReport) String() string {
	return fmt.Sprintf(
		"slowloris=%d/%d closed flood %s churn=%d malformed=%d/%d refused in %s",
		r.SlowServerClosed, r.SlowOpened, r.Flood, r.ChurnCycles, r.MalformedRefused, r.MalformedSent,
		r.Duration.Round(time.Millisecond))
}

// RunChaos attacks the server at baseURL with every adversary concurrently
// and blocks until all of them finish or the deadline passes. Like Run, the
// returned error covers setup only — adversary failures are the data.
func RunChaos(ctx context.Context, baseURL string) (ChaosReport, error) {
	if baseURL == "" {
		return ChaosReport{}, fmt.Errorf("loadgen: no base URL")
	}
	u, err := url.Parse(baseURL)
	if err != nil || u.Host == "" {
		return ChaosReport{}, fmt.Errorf("loadgen: bad base URL %q", baseURL)
	}
	addr := u.Host
	ctx, cancel := context.WithTimeout(ctx, chaosDuration)
	defer cancel()

	var rep ChaosReport
	start := time.Now()
	var wg sync.WaitGroup

	for i := 0; i < slowConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slowloris(ctx, addr, &rep)
		}()
	}
	for i := 0; i < floodIPs; i++ {
		ip := fmt.Sprintf("203.0.113.%d", i+1) // TEST-NET-3, never a real user
		wg.Add(1)
		go func() {
			defer wg.Done()
			flood(ctx, baseURL, ip, &rep)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		churn(ctx, addr, &rep)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		malformed(ctx, addr, &rep)
	}()

	wg.Wait()
	rep.Duration = time.Since(start)
	return rep, nil
}

// slowloris holds one connection in the header phase forever: a valid
// request line, then one useless header per interval, never the blank line
// that ends the headers. The connection counts as server-closed when a read
// hits EOF or a drip write fails before ctx expires.
func slowloris(ctx context.Context, addr string, rep *ChaosReport) {
	d := net.Dialer{Timeout: 2 * time.Second}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return
	}
	defer c.Close()
	atomic.AddInt64(&rep.SlowOpened, 1)
	if _, err := c.Write([]byte("GET / HTTP/1.1\r\nHost: chaos\r\n")); err != nil {
		atomic.AddInt64(&rep.SlowServerClosed, 1)
		return
	}
	buf := make([]byte, 256)
	t := time.NewTicker(slowInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		// A server that hit its read-header deadline has closed the
		// connection: the read sees EOF (or a 408), and if TCP buffering
		// hides that from the first write, the next drip's write fails.
		c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if n, err := c.Read(buf); err == io.EOF || n > 0 {
			atomic.AddInt64(&rep.SlowServerClosed, 1)
			return
		}
		if _, err := c.Write([]byte("X-Drip: y\r\n")); err != nil {
			atomic.AddInt64(&rep.SlowServerClosed, 1)
			return
		}
	}
}

// flood fires back-to-back requests from one simulated source address and
// classifies every response.
func flood(ctx context.Context, baseURL, ip string, rep *ChaosReport) {
	client := newClient(floodTimeout)
	defer client.CloseIdleConnections()
	for i := 0; i < floodPerIP; i++ {
		if ctx.Err() != nil {
			return
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/", nil)
		if err != nil {
			return
		}
		req.Header.Set("User-Agent", "smartsra-chaos/1.0")
		req.Header.Set("X-Forwarded-For", ip)
		rep.Flood.count(client.Do(req))
	}
}

// churn opens and immediately abandons connections — no bytes, no goodbye —
// the pattern of port scanners and broken clients. The server should account
// for them (serve.conns.*) and leak nothing.
func churn(ctx context.Context, addr string, rep *ChaosReport) {
	d := net.Dialer{Timeout: 2 * time.Second}
	for i := 0; i < churnCycles; i++ {
		if ctx.Err() != nil {
			return
		}
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return
		}
		c.Close()
		atomic.AddInt64(&rep.ChurnCycles, 1)
	}
}

// malformed sends garbage request lines and counts the server's refusals
// (4xx or an immediate hangup). Anything else — a 2xx, a hang — is left
// uncounted and shows up as MalformedSent > MalformedRefused.
func malformed(ctx context.Context, addr string, rep *ChaosReport) {
	d := net.Dialer{Timeout: 2 * time.Second}
	for i := 0; i < malformedConns; i++ {
		if ctx.Err() != nil {
			return
		}
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return
		}
		atomic.AddInt64(&rep.MalformedSent, 1)
		c.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Write([]byte("SMASH /\x00garbage\r\n\r\n")); err != nil {
			atomic.AddInt64(&rep.MalformedRefused, 1)
			c.Close()
			continue
		}
		br := bufio.NewReader(c)
		line, err := br.ReadString('\n')
		switch {
		case err != nil:
			// Immediate hangup with no status line is also a refusal.
			atomic.AddInt64(&rep.MalformedRefused, 1)
		case strings.Contains(line, " 4"):
			atomic.AddInt64(&rep.MalformedRefused, 1)
		}
		c.Close()
	}
}

// ScrapeMetrics fetches baseURL's /debug/metrics text endpoint ("counter
// name value" / "gauge name value" lines, labeled series rendered as
// name{k="v"}) into a flat map, keyed by the registry's names. A chaos run
// reads the server's own conservation and admission counters with it.
func ScrapeMetrics(ctx context.Context, baseURL string) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/debug/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s/debug/metrics: status %d", baseURL, resp.StatusCode)
	}
	m := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || (f[0] != "counter" && f[0] != "gauge") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(f[2], "%d", &v); err == nil {
			m[f[1]] = v
		}
	}
	return m, sc.Err()
}
