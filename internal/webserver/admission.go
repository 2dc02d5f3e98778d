// Admission control: the connection-level gate in front of the access log,
// and the only place cmd/serve sheds load. It sheds before any work happens
// at all — a global in-flight cap
// bounds concurrent request handling, and per-IP token buckets stop a
// single source (crawler, flood, misbehaving proxy client) from starving
// everyone else. Both limits respond with the standard backpressure
// vocabulary (503 for "the server is saturated", 429 for "you specifically
// are over budget") plus a jittered Retry-After so synchronized clients
// don't re-thunder in lockstep.
package webserver

import (
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"smartsra/internal/metrics"
)

// Admission metrics, all under serve.admission.* so /debug/metrics shows
// the degradation story in one place: how much concurrency is in use, who
// is being turned away, and why.
var (
	metricAdmitted = metrics.GetCounter(metrics.WithLabels(
		"serve.admission.requests", "outcome", "admitted"))
	metricInflightShed = metrics.GetCounter(metrics.WithLabels(
		"serve.admission.requests", "outcome", "inflight_shed"))
	metricIPLimited = metrics.GetCounter(metrics.WithLabels(
		"serve.admission.requests", "outcome", "ip_limited"))
	metricInflight   = metrics.GetGauge("serve.admission.inflight")
	metricTrackedIPs = metrics.GetGauge("serve.admission.tracked_ips")
	metricEvictedIPs = metrics.GetCounter("serve.admission.evicted_ips")
)

// maxTrackedIPs bounds the bucket table so hostile address churn cannot grow
// it without bound; at the cap, fully-idle buckets are swept and, if none
// are, an arbitrary one is evicted.
const maxTrackedIPs = 65536

// retryAfterSeconds returns a jittered Retry-After value in [1, 3] seconds.
// Both admission refusals (503 and 429) use it: a fixed Retry-After teaches
// every shed client the same wake-up time, which converts one overload spike
// into a train of them.
func retryAfterSeconds() int { return 1 + rand.Intn(3) }

// AdmissionConfig configures the admission gate. The zero value disables
// everything — each limit is opt-in.
type AdmissionConfig struct {
	// MaxInFlight caps concurrently handled requests; over the cap requests
	// are shed with 503 before any handler work. 0 disables the cap.
	MaxInFlight int
	// PerIPRate is the sustained per-client budget in requests/second,
	// enforced by a token bucket per client IP. 0 disables per-IP limiting.
	PerIPRate float64
	// PerIPBurst is the bucket capacity — how many requests a client may
	// send instantaneously before the rate applies. 0 defaults to
	// max(1, round(PerIPRate)).
	PerIPBurst int
	// TrustForwardedFor keys buckets by the first X-Forwarded-For address
	// instead of the connection address, matching the access log's client
	// attribution (see ClientIP). Enable only behind a trusted proxy.
	TrustForwardedFor bool
}

// Admission is the middleware state: an in-flight counter and the per-IP
// bucket table.
type Admission struct {
	cfg   AdmissionConfig
	burst float64
	// now is the bucket clock and maxIPs the bucket table's cap: time.Now
	// and maxTrackedIPs, which tests replace.
	now    func() time.Time
	maxIPs int

	mu       sync.Mutex
	inflight int
	buckets  map[string]*ipBucket
}

// ipBucket is a standard token bucket with lazy refill: tokens top up at
// PerIPRate per second, capped at burst, computed on access — no background
// goroutine per client.
type ipBucket struct {
	tokens float64
	last   time.Time
}

// NewAdmission builds the gate.
func NewAdmission(cfg AdmissionConfig) *Admission {
	burst := float64(cfg.PerIPBurst)
	if cfg.PerIPBurst <= 0 {
		burst = float64(int(cfg.PerIPRate + 0.5))
		if burst < 1 {
			burst = 1
		}
	}
	return &Admission{cfg: cfg, burst: burst, now: time.Now, maxIPs: maxTrackedIPs, buckets: make(map[string]*ipBucket)}
}

// allowIP takes one token from ip's bucket, refilling lazily; reports
// whether the request is within budget.
func (a *Admission) allowIP(ip string, now time.Time) bool {
	b, ok := a.buckets[ip]
	if !ok {
		if len(a.buckets) >= a.maxIPs {
			a.evictLocked(now)
		}
		b = &ipBucket{tokens: a.burst, last: now}
		a.buckets[ip] = b
		metricTrackedIPs.Set(int64(len(a.buckets)))
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * a.cfg.PerIPRate
		if b.tokens > a.burst {
			b.tokens = a.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictLocked makes room in the bucket table: drop every fully-refilled
// (idle) bucket — forgetting one loses nothing, a full bucket is exactly
// the state a fresh entry starts in — and if the table is all-active, drop
// one arbitrary entry so memory stays bounded even under address-churn
// attacks designed to keep every bucket warm.
func (a *Admission) evictLocked(now time.Time) {
	evicted := 0
	for ip, b := range a.buckets {
		idle := b.tokens + now.Sub(b.last).Seconds()*a.cfg.PerIPRate
		if idle >= a.burst {
			delete(a.buckets, ip)
			evicted++
		}
	}
	if evicted == 0 {
		for ip := range a.buckets {
			delete(a.buckets, ip)
			evicted++
			break
		}
	}
	metricEvictedIPs.Add(int64(evicted))
	metricTrackedIPs.Set(int64(len(a.buckets)))
}

// shed writes a shedding response with the jittered Retry-After.
func (a *Admission) shed(w http.ResponseWriter, status int, body string) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds()))
	http.Error(w, body, status)
}

// Wrap gates next behind the configured limits. Order: the per-IP check
// runs first (a flooding client is rejected even when the server has spare
// concurrency — its budget is its budget), then the global in-flight cap.
func (a *Admission) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if a.cfg.PerIPRate > 0 {
			ip := ClientIP(r, a.cfg.TrustForwardedFor)
			a.mu.Lock()
			ok := a.allowIP(ip, a.now())
			a.mu.Unlock()
			if !ok {
				metricIPLimited.Inc()
				a.shed(w, http.StatusTooManyRequests, "per-client request budget exceeded")
				return
			}
		}
		if a.cfg.MaxInFlight > 0 {
			a.mu.Lock()
			over := a.inflight >= a.cfg.MaxInFlight
			if !over {
				a.inflight++
				metricInflight.Set(int64(a.inflight))
			}
			a.mu.Unlock()
			if over {
				metricInflightShed.Inc()
				a.shed(w, http.StatusServiceUnavailable, "server at concurrency limit")
				return
			}
			defer func() {
				a.mu.Lock()
				a.inflight--
				metricInflight.Set(int64(a.inflight))
				a.mu.Unlock()
			}()
		}
		metricAdmitted.Inc()
		next.ServeHTTP(w, r)
	})
}
