package main

import (
	"net/http"
	"strconv"

	"smartsra/internal/metrics"
	"smartsra/internal/webserver"
)

var (
	// metricShed counts requests (503 mode) or records (drop-count mode)
	// refused because the ingest queue was full.
	metricShed = metrics.GetCounter("serve.shed")
	// metricEnqueued counts records accepted for the sessionizer: sent down
	// the ingest queue, or backfilled from the drop ledger.
	metricEnqueued = metrics.GetCounter("serve.ingest.enqueued")
	// metricPending tracks reserved-but-not-yet-sessionized records — the
	// queue's live occupancy.
	metricPending = metrics.GetGauge("serve.ingest.pending")
	// metricQueueDepth is the configured queue capacity, so dashboards can
	// plot occupancy against the bound it sheds at.
	metricQueueDepth = metrics.GetGauge("serve.ingest.queue_depth")
	// metricReserveFailures counts tryReserve losses — every time the bound
	// turned someone away, regardless of which shed mode handled it.
	metricReserveFailures = metrics.GetCounter("serve.ingest.reserve_failures")
	// metricBarrierWait is how long a checkpoint or rotation, holding the log
	// lock, took to empty the queue into the tail — the latency cost of a
	// consistent cut.
	metricBarrierWait = metrics.Default.GetHistogramBuckets("serve.ingest.barrier.seconds", metrics.LatencyBuckets)
)

// Shed modes for a full ingest queue.
const (
	// shed503 refuses the whole request with 503 before it is served or
	// logged, keeping the access log exactly equal to what the sessionizer
	// ingested — the configuration crash-recovery equivalence depends on.
	shed503 = "503"
	// shedDropCount serves and logs the request but drops the record from
	// the live sessionizer, counting the drop. The log then holds more than
	// the tail saw, until the owner backfills the difference from the log.
	shedDropCount = "drop-count"
)

// tryReserve claims a queue slot, or reports the queue full. A winning caller
// MUST eventually send exactly one record (the owner releases the slot).
func (s *server) tryReserve() bool {
	for {
		p := s.pending.Load()
		if p >= s.capacity {
			metricReserveFailures.Inc()
			return false
		}
		if s.pending.CompareAndSwap(p, p+1) {
			metricPending.Set(p + 1)
			return true
		}
	}
}

// shedGate admits a request only if the ingest queue has a free slot,
// reserving it for the record the access logger will send once the request
// completes. A full queue refuses the request outright — 503, shed counter —
// before anything is served or logged, so the access log and the
// sessionizer's input stay identical and the server's memory stays bounded
// no matter how hard the load generator pushes.
func (s *server) shedGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.tryReserve() {
			metricShed.Inc()
			// Jittered so the shed cohort doesn't re-thunder in lockstep.
			w.Header().Set("Retry-After", strconv.Itoa(webserver.RetryAfterSeconds()))
			http.Error(w, "overloaded: ingest queue full", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}
