package webserver

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
}

// TestPerIPCapExactness is the acceptance pin: N clients each firing M
// requests over the cap are admitted exactly PerIPBurst times apiece, no
// off-by-one, no cross-client bleed. The clock is frozen so zero tokens
// refill mid-test.
func TestPerIPCapExactness(t *testing.T) {
	const (
		clients = 8
		burst   = 5
		overCap = 3 // requests per client beyond the budget
	)
	frozen := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	a := NewAdmission(AdmissionConfig{
		PerIPRate:         1,
		PerIPBurst:        burst,
		TrustForwardedFor: true,
	})
	a.now = func() time.Time { return frozen }
	h := a.Wrap(okHandler())

	admitted := make(map[string]int)
	rejected := make(map[string]int)
	for c := 0; c < clients; c++ {
		ip := fmt.Sprintf("10.1.0.%d", c+1)
		for i := 0; i < burst+overCap; i++ {
			req := httptest.NewRequest("GET", "/", nil)
			req.RemoteAddr = "127.0.0.1:9999"
			req.Header.Set("X-Forwarded-For", ip)
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			switch rr.Code {
			case http.StatusOK:
				admitted[ip]++
			case http.StatusTooManyRequests:
				rejected[ip]++
				if ra := rr.Header().Get("Retry-After"); ra == "" {
					t.Fatalf("%s: 429 without Retry-After", ip)
				} else if sec, err := strconv.Atoi(ra); err != nil || sec < 1 || sec > 3 {
					t.Fatalf("%s: Retry-After %q outside [1,3]", ip, ra)
				}
			default:
				t.Fatalf("%s: unexpected status %d", ip, rr.Code)
			}
		}
	}
	for c := 0; c < clients; c++ {
		ip := fmt.Sprintf("10.1.0.%d", c+1)
		if admitted[ip] != burst {
			t.Errorf("%s: admitted %d, want exactly %d", ip, admitted[ip], burst)
		}
		if rejected[ip] != overCap {
			t.Errorf("%s: rejected %d, want exactly %d", ip, rejected[ip], overCap)
		}
	}
}

// TestPerIPRefill pins the refill math: after the budget is spent, waiting
// t seconds at rate r grants exactly floor(t*r) more admissions.
func TestPerIPRefill(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	a := NewAdmission(AdmissionConfig{
		PerIPRate:  2, // 2 req/s
		PerIPBurst: 4,
	})
	a.now = func() time.Time { return now }
	h := a.Wrap(okHandler())
	send := func() int {
		req := httptest.NewRequest("GET", "/", nil)
		req.RemoteAddr = "10.2.0.1:1234"
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr.Code
	}
	for i := 0; i < 4; i++ {
		if code := send(); code != http.StatusOK {
			t.Fatalf("initial burst request %d: status %d", i, code)
		}
	}
	if code := send(); code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429", code)
	}
	now = now.Add(1500 * time.Millisecond) // 1.5s × 2/s = 3 tokens
	for i := 0; i < 3; i++ {
		if code := send(); code != http.StatusOK {
			t.Fatalf("post-refill request %d: status %d", i, code)
		}
	}
	if code := send(); code != http.StatusTooManyRequests {
		t.Fatalf("post-refill over-budget request: status %d, want 429", code)
	}
}

// TestInFlightCap pins the global concurrency gate: with MaxInFlight=K and
// more than K requests blocked inside the handler, request K+1 is shed with
// 503 and a Retry-After, and capacity frees once a handler returns.
func TestInFlightCap(t *testing.T) {
	const cap = 3
	release := make(chan struct{})
	entered := make(chan struct{}, cap+8)
	a := NewAdmission(AdmissionConfig{MaxInFlight: cap})
	h := a.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer close(release)

	var wg sync.WaitGroup
	for i := 0; i < cap; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < cap; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("handler never saturated")
		}
	}
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap request: status %d, want 503", resp.StatusCode)
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || sec < 1 || sec > 3 {
		t.Fatalf("over-cap Retry-After %q outside [1,3]", resp.Header.Get("Retry-After"))
	}
	for i := 0; i < cap; i++ {
		release <- struct{}{}
	}
	wg.Wait()
	// The follow-up request runs the same blocking handler; feed it its
	// release token up front so only admission can block it.
	go func() { release <- struct{}{} }()
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release request: status %d, want 200", resp.StatusCode)
	}
}

// TestBucketTableBounded pins the memory bound: hostile address churn never
// grows the bucket table past its cap (64 here; TestAdmissionOnTheLivePath
// churns serve's 65,536).
func TestBucketTableBounded(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	a := NewAdmission(AdmissionConfig{
		PerIPRate:  1,
		PerIPBurst: 2,
	})
	a.now = func() time.Time { return now }
	a.maxIPs = 64
	h := a.Wrap(okHandler())
	for i := 0; i < 1000; i++ {
		req := httptest.NewRequest("GET", "/", nil)
		req.RemoteAddr = fmt.Sprintf("10.%d.%d.%d:1", i>>16&0xff, i>>8&0xff, i&0xff)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
	}
	a.mu.Lock()
	n := len(a.buckets)
	a.mu.Unlock()
	if n > 64 {
		t.Fatalf("bucket table grew to %d entries, cap is 64", n)
	}
}

// TestRetryAfterJitterBound pins the jitter range shared by every shedding
// response.
func TestRetryAfterJitterBound(t *testing.T) {
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		s := retryAfterSeconds()
		if s < 1 || s > 3 {
			t.Fatalf("retryAfterSeconds() = %d, want within [1,3]", s)
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatalf("no jitter observed: only %v", seen)
	}
}
