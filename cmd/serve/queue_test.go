package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartsra/internal/clf"
)

func testRecord(i int) clf.Record {
	return clf.Record{
		Host: "10.0.0.1", Ident: "-", AuthUser: "-",
		Time:   time.Date(2026, 8, 8, 12, 0, i, 0, time.UTC),
		Method: "GET", URI: fmt.Sprintf("/p/%d.html", i), Protocol: "HTTP/1.1",
		Status: 200, Bytes: 100,
	}
}

// TestQueueShedsExactlyAtCapacity: with capacity C, exactly C reservations
// win and every further attempt sheds until a slot is released — no
// off-by-one, no silent admission.
func TestQueueShedsExactlyAtCapacity(t *testing.T) {
	const capacity = 8
	f := newLiveFixture(t, func(o *options) { o.queueCap = capacity })
	s := f.s
	won := 0
	for i := 0; i < 3*capacity; i++ {
		if s.tryReserve() {
			won++
		}
	}
	if won != capacity {
		t.Fatalf("%d reservations won against capacity %d", won, capacity)
	}

	// Send the reserved records; once the owner has pushed them every slot
	// frees up.
	f.start()
	for i := 0; i < capacity; i++ {
		s.Record(testRecord(i))
	}
	f.waitIdle()
	if got := f.own.tee.st.Stats().Records; got != capacity {
		t.Fatalf("owner pushed %d of %d", got, capacity)
	}
	for i := 0; i < capacity; i++ {
		if !s.tryReserve() {
			t.Fatalf("slot %d not released after the push", i)
		}
	}
	if s.tryReserve() {
		t.Fatal("over-admitted past capacity after refill")
	}
	// Stop with reserved-but-never-sent slots: the queue cannot settle, and
	// stop must say so instead of deadlocking.
	if settled := f.stop(50 * time.Millisecond); settled {
		t.Fatal("stop reported settled with reservations never sent")
	}
}

// TestQueueStopDrainsFullBacklog: stopping with the queue full to capacity
// must process every record and report settled — shutdown cannot deadlock on
// a full queue or drop its backlog.
func TestQueueStopDrainsFullBacklog(t *testing.T) {
	const capacity = 512
	f := newLiveFixture(t, func(o *options) { o.queueCap = capacity })
	for i := 0; i < capacity; i++ {
		f.send(testRecord(i))
	}
	// Start the owner only now: the whole backlog is already queued, and the
	// stop request may well be the first message it takes.
	f.start()
	if settled := f.stop(5 * time.Second); !settled {
		t.Fatal("stop did not settle a fully-queued backlog")
	}
	if got := f.own.tee.st.Stats().Records; got != capacity {
		t.Fatalf("processed %d of %d backlog records", got, capacity)
	}
}

// TestQueueStragglerAfterStop: a record sent after the owner began its stop
// sequence (the post-shutdown-deadline straggler) is processed by it.
func TestQueueStragglerAfterStop(t *testing.T) {
	f := newLiveFixture(t, func(o *options) { o.queueCap = 4 })
	if !f.s.tryReserve() {
		t.Fatal("reserve failed on an empty queue")
	}
	f.start()
	f.own.quit <- 5 * time.Second // taken: the owner is in its stop sequence
	f.stopped = true
	f.s.Record(testRecord(1))
	if settled := <-f.own.settled; !settled {
		t.Fatal("stop abandoned a straggler it had the slot accounting for")
	}
	if got := f.own.tee.st.Stats().Records; got != 1 {
		t.Fatalf("straggler not pushed: tail saw %d records", got)
	}
}

// TestIngestQueueZeroRejected: the synchronous in-handler path is gone, and
// asking for it says which flag to change.
func TestIngestQueueZeroRejected(t *testing.T) {
	err := run(options{topoPath: "unused.json", shedMode: shed503, queueCap: 0})
	if err == nil || !strings.Contains(err.Error(), "-ingest-queue") {
		t.Fatalf("run with -ingest-queue 0: %v, want an error naming the flag", err)
	}
}

// TestShedGateExactCounts: with capacity C and an inner handler that holds
// its slot until released, a burst of N > C concurrent requests yields
// exactly C admissions and N-C 503s, each counted once.
func TestShedGateExactCounts(t *testing.T) {
	const capacity, burst = 3, 20
	metricShed.Add(-metricShed.Value()) // isolate this test's counts
	s := &server{capacity: capacity, shedMode: shed503}

	release := make(chan struct{})
	var admitted atomic.Int64
	gate := s.shedGate(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		admitted.Add(1)
		<-release
		w.Write([]byte("ok"))
	}))
	srv := httptest.NewServer(gate)
	defer srv.Close()

	type result struct {
		code       int
		retryAfter string
	}
	codes := make(chan result, burst)
	for i := 0; i < burst; i++ {
		go func() {
			resp, err := http.Get(srv.URL)
			if err != nil {
				codes <- result{code: -1}
				return
			}
			resp.Body.Close()
			codes <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}
	// All capacity slots claimed, the rest shed, before anyone is released.
	deadline := time.Now().Add(5 * time.Second)
	for metricShed.Value() < burst-capacity && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	close(release)
	var oks, unavailable int
	for i := 0; i < burst; i++ {
		r := <-codes
		switch r.code {
		case http.StatusOK:
			oks++
		case http.StatusServiceUnavailable:
			unavailable++
			// Every shed carries the jittered Retry-After within [1,3] so
			// rejected clients don't re-thunder in lockstep.
			if sec, err := strconv.Atoi(r.retryAfter); err != nil || sec < 1 || sec > 3 {
				t.Fatalf("503 Retry-After %q outside [1,3]", r.retryAfter)
			}
		default:
			t.Fatal("request neither served nor shed")
		}
	}
	if oks != capacity || unavailable != burst-capacity {
		t.Fatalf("admitted %d / shed %d, want %d / %d", oks, unavailable, capacity, burst-capacity)
	}
	if got := metricShed.Value(); got != burst-capacity {
		t.Fatalf("serve.shed = %d, want %d", got, burst-capacity)
	}
	if got := admitted.Load(); got != capacity {
		t.Fatalf("inner handler ran %d times, want %d", got, capacity)
	}
}
