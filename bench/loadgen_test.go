package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartsra/internal/simulator"
)

func testDriver(t *testing.T, h http.Handler, conns int) *driver {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	sched := make([]simulator.Request, 50)
	for i := range sched {
		sched[i] = simulator.Request{User: simulator.AgentID(i), URI: "/p/1.html", Referer: "/p/0.html"}
	}
	return &driver{addr: strings.TrimPrefix(srv.URL, "http://"), conns: conns, reqs: renderRequests(sched)}
}

// A server that stalls once for 50 ms makes every request that was due during
// the stall late. Timed from when each was due, the stall fills the tail of
// the distribution; timed from when each was sent — what internal/loadgen
// does — it is one slow sample out of a thousand and the p99 never sees it.
func TestOpenLoopCountsQueueingBehindAStall(t *testing.T) {
	const stall = 50 * time.Millisecond
	var n atomic.Int64
	d := testDriver(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 300 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}), 1)
	p := d.run(context.Background(), 1000, time.Second)
	if got := len(p.Shots); got != 1000 {
		t.Fatalf("open loop at 1000/s for 1 s sent %d requests, want exactly 1000", got)
	}
	if tl := p.tally(); tl.Accepted != tl.Sent {
		t.Fatalf("tally %+v", tl)
	}
	fromDue, err := percentile(p.latenciesMS(), 99)
	if err != nil {
		t.Fatal(err)
	}
	var sendTimed []float64
	for _, s := range p.Shots {
		sendTimed = append(sendTimed, float64(s.done-s.sent)/float64(time.Millisecond))
	}
	fromSend, err := percentile(sendTimed, 99)
	if err != nil {
		t.Fatal(err)
	}
	// About 50 requests fall due during the stall and wait 50, 49, ... ms.
	if fromDue < 25 {
		t.Errorf("p99 from due time = %.2f ms: the waiting behind the 50 ms stall is missing", fromDue)
	}
	if fromSend > 20 {
		t.Errorf("p99 from send time = %.2f ms: expected the stall to hide here", fromSend)
	}
	late, err := percentile(p.latenessMS(), 99)
	if err != nil || late < 25 {
		t.Errorf("generator lateness p99 = %.2f ms (%v): the backlog must show as lateness", late, err)
	}
}

func TestOpenLoopKeepsTheSchedule(t *testing.T) {
	d := testDriver(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) }), 2)
	p := d.run(context.Background(), 2000, 500*time.Millisecond)
	if got := len(p.Shots); got != 1000 {
		t.Fatalf("sent %d, want 1000", got)
	}
	for i, s := range p.Shots {
		if s.sent < s.due {
			t.Fatalf("shot %d sent %v before it was due %v", i, s.sent, s.due)
		}
	}
	if p.Elapsed < 490*time.Millisecond || p.Elapsed > 2*time.Second {
		t.Errorf("phase took %v", p.Elapsed)
	}
}

func TestClosedLoopAndTallyBuckets(t *testing.T) {
	var n atomic.Int64
	d := testDriver(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Forwarded-For") == "" || r.Header.Get("Referer") == "" {
			http.Error(w, "headers missing", http.StatusBadRequest)
			return
		}
		switch n.Add(1) % 10 {
		case 0:
			http.Error(w, "full", http.StatusServiceUnavailable)
		case 1:
			http.Error(w, "slow down", http.StatusTooManyRequests)
		default:
			w.Write([]byte(strings.Repeat("x", 5000))) // chunked: no Content-Length
		}
	}), 2)
	p := d.run(context.Background(), 0, 200*time.Millisecond)
	tl := p.tally()
	if tl.Sent < 20 || tl.Sent != tl.Accepted+tl.Shed+tl.Rejected+tl.Errors {
		t.Fatalf("tally does not add up: %+v", tl)
	}
	if tl.Shed == 0 || tl.Rejected == 0 || tl.Errors != 0 || tl.Accepted < tl.Sent/2 {
		t.Errorf("buckets: %+v", tl)
	}
	// A refused request counts as missing any latency limit: it enters the
	// distribution at the request timeout, so refusing makes p99 worse.
	slow := 0
	for _, l := range p.latenciesMS() {
		if l >= float64(reqTimeout/time.Millisecond) {
			slow++
		}
	}
	if len(p.latenciesMS()) != tl.Sent || slow != tl.Shed+tl.Rejected {
		t.Errorf("%d latencies for %d sent, %d at the timeout for %d refused", len(p.latenciesMS()), tl.Sent, slow, tl.Shed+tl.Rejected)
	}
}

// The generator falling steadily behind shows on both connections alike, so
// it must be looked for along due time, not along the order shots are stored
// in (one connection's after the other's).
func TestLatenessGrowingFollowsDueTime(t *testing.T) {
	const dur = time.Second
	ramp := func(slope float64) *phase {
		p := &phase{Rate: 1000}
		for conn := 0; conn < 2; conn++ {
			for i := conn; i < 1000; i += 2 {
				due := time.Duration(i) * time.Millisecond
				late := time.Duration(slope * float64(due))
				p.Shots = append(p.Shots, shot{due: due, sent: due + late, done: due + late, status: 200})
			}
		}
		return p
	}
	if ramp(0).latenessGrowing(dur) {
		t.Error("a generator that is never late is not falling behind")
	}
	if !ramp(0.01).latenessGrowing(dur) {
		t.Error("lateness that ramps to 10 ms over the phase must count as growing")
	}
	// Constant lateness on one connection only: late, but not growing.
	p := ramp(0)
	for i := 500; i < len(p.Shots); i++ {
		p.Shots[i].sent += 5 * time.Millisecond
	}
	if p.latenessGrowing(dur) {
		t.Error("one connection being late throughout is not growth over time")
	}
}

func TestTransportErrorsAreCounted(t *testing.T) {
	d := testDriver(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}), 1)
	p := d.run(context.Background(), 200, 100*time.Millisecond)
	if tl := p.tally(); tl.Errors != tl.Sent || tl.Sent != 20 {
		t.Errorf("every request should be a transport error: %+v", tl)
	}
}
