package loadgen

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

func schedule(n int, gap time.Duration) []simulator.Request {
	base := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	reqs := make([]simulator.Request, n)
	for i := range reqs {
		uri := "/p/ok.html"
		if i%5 == 4 {
			uri = "/p/shed.html"
		}
		reqs[i] = simulator.Request{
			User:    simulator.AgentID(i % 7),
			URI:     uri,
			Referer: "-",
			At:      base.Add(time.Duration(i) * gap),
		}
	}
	return reqs
}

// TestRunConservation: every scheduled request is accounted for exactly once
// — accepted + shed + errors == sent == len(schedule) — and the latency
// histogram saw every response.
func TestRunConservation(t *testing.T) {
	var got503 atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "shed") {
			got503.Add(1)
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	reqs := schedule(200, time.Second)
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Requests: reqs,
		Workers:  4,
		// Speedup 0: no pacing, full pressure.
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != int64(len(reqs)) {
		t.Errorf("sent %d of %d", rep.Sent, len(reqs))
	}
	if rep.Accepted+rep.Shed+rep.Errors != rep.Sent {
		t.Errorf("conservation violated: accepted %d + shed %d + errors %d != sent %d",
			rep.Accepted, rep.Shed, rep.Errors, rep.Sent)
	}
	if want := int64(len(reqs) / 5); rep.Shed != want || got503.Load() != want {
		t.Errorf("shed = %d (server sent %d), want %d", rep.Shed, got503.Load(), want)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d against a healthy test server", rep.Errors)
	}
	if rep.Latency.Count != rep.Sent {
		t.Errorf("latency histogram saw %d of %d responses", rep.Latency.Count, rep.Sent)
	}
	if p99 := rep.Latency.Quantile(0.99); p99 <= 0 {
		t.Errorf("p99 = %v, want > 0", p99)
	}
}

// TestRunPacing: with a finite speedup the replay must take at least the
// compressed schedule span — loadgen may lag a slow server, but it must not
// run ahead of the schedule.
func TestRunPacing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	// 20 requests, 1s apart: 19s of simulated time at 100x → at least 190ms.
	reqs := schedule(20, time.Second)
	start := time.Now()
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Requests: reqs,
		Speedup:  100,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 190*time.Millisecond {
		t.Errorf("replay of a 19s schedule at 100x finished in %v (< 190ms): pacing ran ahead", elapsed)
	}
	if rep.Accepted != int64(len(reqs)) {
		t.Errorf("accepted %d of %d", rep.Accepted, len(reqs))
	}
}

// TestRunCancel: cancelling the context stops the dispatch loop; whatever was
// already sent stays accounted.
func TestRunCancel(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var rep Report
	go func() {
		defer close(done)
		rep, _ = Run(ctx, Config{
			BaseURL:  srv.URL,
			Requests: schedule(1000, time.Millisecond),
			Workers:  2,
		})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if rep.Accepted+rep.Shed+rep.Errors != rep.Sent {
		t.Errorf("conservation violated after cancel: %+v", rep)
	}
	if rep.Sent >= 1000 {
		t.Errorf("cancel did not stop dispatch (sent %d)", rep.Sent)
	}
}

// TestRunsKeepTheirOwnLatencies: two replays in one process each report the
// latencies of their own responses, not of every run so far.
func TestRunsKeepTheirOwnLatencies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	for i := 0; i < 2; i++ {
		rep, err := Run(context.Background(), Config{BaseURL: srv.URL, Requests: schedule(30, time.Second), Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Latency.Count != rep.Accepted || rep.Accepted != 30 {
			t.Errorf("run %d: latency count %d for %d responses (30 sent)", i+1, rep.Latency.Count, rep.Accepted)
		}
	}
}

// TestTallyClassifies pins the one classifier the replay and the flood share:
// a redirect is accepted, 503 is shed, 429 is rejected, and any other status
// or a transport failure is an error.
func TestTallyClassifies(t *testing.T) {
	var got Tally
	for _, status := range []int{200, 302, 503, 429, 404, 500} {
		rec := httptest.NewRecorder()
		rec.WriteHeader(status)
		got.count(rec.Result(), nil)
	}
	got.count(nil, context.DeadlineExceeded)
	if want := (Tally{Sent: 7, Accepted: 2, Shed: 1, Rejected: 1, Errors: 3}); got != want {
		t.Errorf("tally %+v, want %+v", got, want)
	}
}
