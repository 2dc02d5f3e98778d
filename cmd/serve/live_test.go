package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/faultio"
	"smartsra/internal/metrics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// liveFixture is a server and its owner built in-process over a temp dir,
// exactly as run builds them, with the owner's inbox in the test's hands:
// unbuffered tick channels (a send returns once the owner has taken the
// tick) and a clock the test sets before firing one.
type liveFixture struct {
	t    *testing.T
	opts options
	own  *owner
	s    *server

	read, expire, ckpt chan time.Time
	clock              time.Time // what own.now returns
	running            bool      // started and not stopped: the cleanup stops it
}

// t0 is where the fixtures' request times start.
var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// fixtureGraph is the topology every fixture serves.
var fixtureGraph = func() *webgraph.Graph {
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 40, AvgOutDegree: 6, StartPageFraction: 0.1,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		panic(err)
	}
	return g
}()

// newLiveFixture builds the owner for {-log, -sessions} in a fresh directory,
// adjusted by mut (which sees the paths, so it can point ckptPath into opts'
// directory). The owner goroutine is not running until start.
func newLiveFixture(t *testing.T, mut func(*options)) *liveFixture {
	t.Helper()
	dir := t.TempDir()
	tf, err := os.Create(filepath.Join(dir, "topology.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtureGraph.Encode(tf); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	f := &liveFixture{t: t, clock: t0, read: make(chan time.Time), expire: make(chan time.Time), ckpt: make(chan time.Time)}
	f.opts = options{
		topoPath: filepath.Join(dir, "topology.json"),
		logPath:  filepath.Join(dir, "access.log"),
		sessPath: filepath.Join(dir, "sessions.txt"),
		trustFwd: true,
	}
	if mut != nil {
		mut(&f.opts)
	}
	if f.own, err = newOwner(f.opts); err != nil {
		t.Fatal(err)
	}
	heldSessions.Set(0) // the gauge is the process's; an earlier owner may have left it set
	f.s = f.own.s
	f.own.now = func() time.Time { return f.clock }
	f.own.readTick, f.own.expireTick, f.own.ckptTick = f.read, f.expire, f.ckpt
	t.Cleanup(func() {
		if f.running {
			f.stop()
		}
		f.own.close()
	})
	return f
}

func (f *liveFixture) start() {
	f.running = true
	go f.own.run()
}

func (f *liveFixture) stop() {
	f.running = false
	f.own.stop()
}

func testRecord(i int) clf.Record {
	return clf.Record{
		Host: "10.0.0.1", Ident: "-", AuthUser: "-",
		Time:   time.Date(2026, 8, 8, 12, 0, i, 0, time.UTC),
		Method: "GET", URI: fmt.Sprintf("/p/%d.html", i), Protocol: "HTTP/1.1",
		Status: 200, Bytes: 100,
	}
}

// request is user asking for one of the fixture topology's pages, at after t0.
func request(user string, page int, at time.Duration) clf.Record {
	r := testRecord(0)
	r.Host, r.Time = user, t0.Add(at)
	r.URI = fixtureGraph.Label(webgraph.PageID(page % fixtureGraph.NumPages()))
	return r
}

// send is the request path for one record: the access logger's sink.
func (f *liveFixture) send(r clf.Record) { f.s.Record(r) }

// spin waits, yielding, until cond holds; a stuck condition fails the test
// instead of hanging it.
func (f *liveFixture) spin(what string, cond func() bool) {
	f.t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			f.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// fence returns once the owner has finished every message it took before and
// read the log as far as it reached when fence was called. The read tick is
// unbuffered: the first send returns once the owner took it, after every
// earlier message, and the second once the first tick's catch-up finished.
func (f *liveFixture) fence() {
	for i := 0; i < 2; i++ {
		f.read <- time.Time{}
	}
}

// replay is what an offline run makes of the fixture's log and cut journal.
func (f *liveFixture) replay(cuts []core.ExpiryCut) []byte {
	f.t.Helper()
	st, err := core.NewTail(core.Config{Graph: fixtureGraph}, f.opts.sessionGap)
	if err != nil {
		f.t.Fatal(err)
	}
	var want bytes.Buffer
	n := 0
	sink := encodeInto(f.t, &want, &n)
	if _, err := st.IngestFilesCuts([]string{f.opts.logPath}, clf.FilePos{}, 0, cuts, sink, nil); err != nil {
		f.t.Fatal(err)
	}
	st.Drain(sink)
	return want.Bytes()
}

// cutReplay is replay with the fixture's own cut journal.
func (f *liveFixture) cutReplay() []byte {
	f.t.Helper()
	cuts, err := core.ReadCuts(bytes.NewReader(f.readFile(f.opts.sessPath + ".cuts")))
	if err != nil {
		f.t.Fatal(err)
	}
	return f.replay(cuts)
}

func (f *liveFixture) readFile(path string) []byte {
	f.t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		f.t.Fatal(err)
	}
	return b
}

// TestExpiryCutAtExactRecordBoundary: an expiry needs no freeze. The owner is
// the tail's only pusher, so the cut it journals names exactly the records
// pushed before the sweep, and replaying the log with the journal reproduces
// the live session file byte for byte.
func TestExpiryCutAtExactRecordBoundary(t *testing.T) {
	const k, m = 7, 5
	f := newLiveFixture(t, nil)
	f.start()
	for i := 0; i < k; i++ {
		f.send(request(fmt.Sprintf("10.0.0.%d", i%3), i, time.Duration(i)*time.Second))
	}
	f.fence()
	f.clock = t0.Add(session.DefaultPageStay + time.Minute) // every burst so far is past ρ
	f.expire <- time.Time{}
	f.fence()
	for i := 0; i < m; i++ {
		f.send(request(fmt.Sprintf("10.0.0.%d", i%3), k+i, 20*time.Minute+time.Duration(i)*time.Second))
	}
	f.stop()

	cuts, err := core.ReadCuts(bytes.NewReader(f.readFile(f.opts.sessPath + ".cuts")))
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 || cuts[0].Records != k || !cuts[0].At.Equal(f.clock) {
		t.Fatalf("journal = %+v, want one cut after exactly %d records at %v", cuts, k, f.clock)
	}
	live := f.readFile(f.opts.sessPath)
	if len(live) == 0 {
		t.Fatal("no session was written")
	}
	if want := f.replay(cuts); !bytes.Equal(live, want) {
		t.Fatalf("live sessions diverge from the cut-replay of the log:\nlive:\n%s\nreplay:\n%s", live, want)
	}
}

// hookFS is the real filesystem with a test's code in two places of a
// checkpoint save, both on the owner goroutine: before the temp file is
// created, and before it is renamed over the checkpoint (when it is
// complete).
type hookFS struct {
	checkpoint.FS
	beforeCreate func()
	beforeRename func(tmp string)
}

func (h hookFS) CreateTemp(dir, pattern string) (checkpoint.File, error) {
	if h.beforeCreate != nil {
		h.beforeCreate()
	}
	return h.FS.CreateTemp(dir, pattern)
}

func (h hookFS) Rename(oldpath, newpath string) error {
	if h.beforeRename != nil {
		h.beforeRename(oldpath)
	}
	return h.FS.Rename(oldpath, newpath)
}

func withCheckpoint(o *options) { o.ckptPath = filepath.Join(filepath.Dir(o.logPath), "state.ckpt") }

// page requests the fixture topology's i-th page as user through the server's
// handler.
func page(h http.Handler, user string, i int) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", request(user, i, 0).URI, nil)
	req.Header.Set("X-Forwarded-For", user)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestQueueBarrierWaitsForProcessing: the access log is the queue, and a
// checkpoint's barrier is the owner reading it up to the offset it records,
// so no checkpoint may hold a record that is logged before its offset but not
// in its tail. With eight goroutines requesting pages throughout, every
// checkpoint saved must sit on a line boundary of the log, with exactly as
// many lines before it as its tail snapshot counted, and cover exactly the
// session bytes written.
func TestQueueBarrierWaitsForProcessing(t *testing.T) {
	f := newLiveFixture(t, withCheckpoint)
	saves := 0
	f.own.stream.Ckpt = checkpoint.NewWriter(hookFS{FS: checkpoint.OS, beforeRename: func(tmp string) {
		saves++
		ck, err := checkpoint.Load(checkpoint.OS, tmp)
		if err != nil {
			t.Error(err)
			return
		}
		log := f.readFile(f.opts.logPath)
		if ck.LogOffset > int64(len(log)) || (ck.LogOffset > 0 && log[ck.LogOffset-1] != '\n') {
			t.Errorf("checkpoint %d: LogOffset %d is not a line boundary of the %d-byte log", saves, ck.LogOffset, len(log))
			return
		}
		if lines := bytes.Count(log[:ck.LogOffset], []byte("\n")); lines != ck.Tail.Stats.Records {
			t.Errorf("checkpoint %d: %d records in the tail, but %d log lines before LogOffset %d",
				saves, ck.Tail.Stats.Records, lines, ck.LogOffset)
		}
		if sess := f.readFile(f.opts.sessPath); ck.SinkOffset != f.own.stream.Out.Good || ck.SinkOffset != int64(len(sess)) {
			t.Errorf("checkpoint %d: SinkOffset %d, session file known good to %d of %d bytes",
				saves, ck.SinkOffset, f.own.stream.Out.Good, len(sess))
		}
	}}, f.opts.ckptPath, 0)
	f.start()

	h := f.s.handler(f.opts)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				page(h, fmt.Sprintf("10.0.%d.%d", w, i%5), i)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for hammering := true; hammering; {
		select {
		case f.ckpt <- time.Time{}:
		case <-done:
			hammering = false
		}
	}
	f.ckpt <- time.Time{}
	f.fence()
	f.stop() // one more checkpoint, the final one
	if saves < 3 {
		t.Fatalf("only %d checkpoints were saved beside the traffic", saves)
	}
	if lines := bytes.Count(f.readFile(f.opts.logPath), []byte("\n")); lines != 8*300 {
		t.Fatalf("log has %d lines, want %d", lines, 8*300)
	}
	if live, want := f.readFile(f.opts.sessPath), f.cutReplay(); !bytes.Equal(live, want) {
		t.Fatal("live sessions diverge from the cut-replay of the log")
	}
}

// TestCheckpointSaveLeavesLogLockFree: a checkpoint no longer freezes the
// request path. While the owner is inside checkpoint.Save the log lock is
// free, /debug/metrics answers, and a page request is served and logged; once
// the save is done the owner reads that line like any other, and its record
// reaches the session file.
func TestCheckpointSaveLeavesLogLockFree(t *testing.T) {
	f := newLiveFixture(t, withCheckpoint)
	hold, entered, release := true, make(chan struct{}), make(chan struct{})
	f.own.stream.Ckpt = checkpoint.NewWriter(hookFS{FS: checkpoint.OS, beforeCreate: func() {
		if hold { // the first save only; the owner alone runs this
			hold = false
			entered <- struct{}{}
			<-release
		}
	}}, f.opts.ckptPath, 0)
	f.start()
	f.send(request("10.0.0.1", 1, 0))
	f.ckpt <- time.Time{}
	<-entered // the owner is inside Save

	// A failure lets the save finish first, so the owner can still stop.
	fail := func(format string, args ...any) {
		close(release)
		t.Fatalf(format, args...)
	}
	h := f.s.handler(f.opts)
	if !f.s.logMu.TryLock() {
		fail("the log lock is held during a checkpoint save")
	}
	f.s.logMu.Unlock()
	metrics := httptest.NewRecorder()
	h.ServeHTTP(metrics, httptest.NewRequest("GET", "/debug/metrics", nil))
	if metrics.Code != http.StatusOK || !strings.Contains(metrics.Body.String(), "serve.requests") {
		fail("/debug/metrics during a save: status %d", metrics.Code)
	}
	// A Prometheus scrape asks for the text exposition format.
	prom := httptest.NewRecorder()
	h.ServeHTTP(prom, httptest.NewRequest("GET", "/debug/metrics?format=prometheus", nil))
	if ct := prom.Header().Get("Content-Type"); prom.Code != http.StatusOK || !strings.HasPrefix(ct, "text/plain; version=0.0.4") ||
		!regexp.MustCompile(`(?m)^serve_requests [0-9]+$`).MatchString(prom.Body.String()) {
		fail("/debug/metrics?format=prometheus: status %d, Content-Type %q, want a serve_requests sample:\n%s", prom.Code, ct, prom.Body)
	}
	lines := bytes.Count(f.readFile(f.opts.logPath), []byte("\n"))
	served := make(chan *httptest.ResponseRecorder, 1)
	go func() { served <- page(h, "10.0.0.2", 2) }()
	select {
	case w := <-served:
		if w.Code != http.StatusOK {
			fail("page request during the save: status %d", w.Code)
		}
	case <-time.After(30 * time.Second):
		fail("a page request waited on the checkpoint save")
	}
	if got := bytes.Count(f.readFile(f.opts.logPath), []byte("\n")); got != lines+1 {
		fail("log has %d lines after the request served during the save, want %d", got, lines+1)
	}

	close(release)
	f.fence()
	f.stop()
	sessions, err := session.ReadAll(bytes.NewReader(f.readFile(f.opts.sessPath)))
	if err != nil {
		t.Fatal(err)
	}
	users := map[string]bool{}
	for _, s := range sessions {
		users[s.User] = true
	}
	if !users["10.0.0.1"] || !users["10.0.0.2"] {
		t.Fatalf("session file has users %v, want both 10.0.0.1 and the one served during the save", users)
	}
}

// TestAdmissionOnTheLivePath: with -ip-rate, -ip-burst and -max-inflight
// the handler turns a client over its budget away with 429 and a request
// over the in-flight cap with 503, each with a Retry-After of 1 to 3
// seconds, and logs neither; under address churn the per-client bucket table
// stays at its 65,536-client bound by evicting idle clients.
func TestAdmissionOnTheLivePath(t *testing.T) {
	f := newLiveFixture(t, func(o *options) {
		o.ipRate, o.ipBurst, o.maxInflight, o.trustFwd = 0.001, 2, 1, true
	})
	h := f.s.handler(f.opts)
	refused := func(w *httptest.ResponseRecorder, code int) {
		t.Helper()
		if ra := w.Header().Get("Retry-After"); w.Code != code || ra < "1" || ra > "3" || len(ra) != 1 {
			t.Fatalf("status %d, Retry-After %q; want %d and 1 to 3 s", w.Code, ra, code)
		}
	}
	for i := 0; i < 2; i++ {
		if w := page(h, "10.7.0.1", i); w.Code != http.StatusOK {
			t.Fatalf("request %d within the burst: status %d", i, w.Code)
		}
	}
	refused(page(h, "10.7.0.1", 2), http.StatusTooManyRequests)

	// A request waiting on the log lock is in flight; the next ones are over
	// the cap, each from a client of its own until the table is full.
	f.s.logMu.Lock()
	inflight := metrics.GetGauge("serve.admission.inflight")
	held := make(chan *httptest.ResponseRecorder)
	go func() { held <- page(h, "10.7.0.2", 3) }()
	f.spin("a request in flight", func() bool { return inflight.Value() == 1 })
	refused(page(h, "10.7.0.3", 4), http.StatusServiceUnavailable)
	tracked, evicted := metrics.GetGauge("serve.admission.tracked_ips"), metrics.GetCounter("serve.admission.evicted_ips")
	before := evicted.Value()
	churn := httptest.NewRequest("GET", "/", nil)
	for i := 0; tracked.Value() < 65536; i++ {
		churn.Header.Set("X-Forwarded-For", fmt.Sprintf("10.8.%d.%d", i>>8, i&255))
		h.ServeHTTP(httptest.NewRecorder(), churn)
	}
	page(h, "10.9.0.1", 0)
	if tracked.Value() > 65536 || evicted.Value() == before {
		t.Errorf("%d clients tracked and %d evicted past the bound", tracked.Value(), evicted.Value()-before)
	}
	f.s.logMu.Unlock()
	if w := <-held; w.Code != http.StatusOK {
		t.Fatalf("the request in flight: status %d", w.Code)
	}
	if lines := bytes.Count(f.readFile(f.opts.logPath), []byte("\n")); lines != 3 {
		t.Fatalf("the access log has %d lines, want the 3 admitted requests", lines)
	}
}

// TestQueueStopDrainsFullBacklog: the access log is the queue, and stopping
// reads it to its end. Records logged before the owner ever ran — the stop
// request may be the first message it takes — are all processed.
func TestQueueStopDrainsFullBacklog(t *testing.T) {
	const backlog = 512
	f := newLiveFixture(t, nil)
	ingested := metricIngested.Value()
	for i := 0; i < backlog; i++ {
		f.send(testRecord(i))
	}
	f.start()
	f.stop()
	if got := f.own.stream.Tail.Stats().Records; got != backlog {
		t.Fatalf("processed %d of %d backlog records", got, backlog)
	}
	if got := metricIngested.Value() - ingested; got != backlog {
		t.Fatalf("serve.ingest.records grew by %d, want %d", got, backlog)
	}
}

// TestReadTickIngestsTheLog: logging a request only appends it to the access
// log. The owner reads the log on its read tick, so records logged to a
// running owner that takes no message stay unread, and one tick reads them
// all.
func TestReadTickIngestsTheLog(t *testing.T) {
	const n = 20
	f := newLiveFixture(t, nil)
	f.start()
	ingested := metricIngested.Value()
	for i := 0; i < n; i++ {
		f.send(request("10.0.0.1", i, time.Duration(i)*time.Second))
	}
	time.Sleep(50 * time.Millisecond) // room for a read that must not happen
	if got := metricIngested.Value() - ingested; got != 0 {
		t.Fatalf("serve.ingest.records grew by %d with no tick fired", got)
	}
	f.fence() // one tick, and one more that returns once its catch-up is done
	if got := metricIngested.Value() - ingested; got != n {
		t.Fatalf("serve.ingest.records grew by %d after a tick, want %d", got, n)
	}
	f.stop()
	if live, want := f.readFile(f.opts.sessPath), f.cutReplay(); !bytes.Equal(live, want) {
		t.Fatalf("live sessions diverge from the replay of the log:\nlive:\n%s\nreplay:\n%s", live, want)
	}
}

// TestReadTickPacesHeldRetries: while the session file refuses writes, the
// owner retries the held sessions once per message it takes — a read tick
// when nothing else is due — and never because a request was logged.
func TestReadTickPacesHeldRetries(t *testing.T) {
	f := newLiveFixture(t, nil)
	var down atomic.Bool
	down.Store(true)
	f.own.stream.Out.W = &faultio.Writer{W: f.own.stream.Out.F, Schedule: func(int) faultio.Fault {
		if down.Load() {
			return faultio.Fail
		}
		return faultio.OK
	}}
	past := session.DefaultPageStay + time.Minute
	tries := metricSessionWriteErrors.Value()
	// failed waits until the refused write and its retries number at least n,
	// and returns how many there were.
	failed := func(n int64) int64 {
		f.spin(fmt.Sprint(n, " failed session writes"), func() bool { return metricSessionWriteErrors.Value()-tries >= n })
		return metricSessionWriteErrors.Value() - tries
	}
	captureStderr(t, func() {
		f.start()
		f.send(request("10.0.0.1", 0, 0))
		f.send(request("10.0.0.1", 1, past)) // the first session is refused
		f.fence()                            // and retried on the fence's second tick
		if got := failed(2); got != 2 {
			t.Errorf("%d failed session writes, want the refused one and one retry", got)
		}
		for i := 0; i < 10; i++ {
			f.send(request("10.0.0.2", i, past+time.Duration(i)*time.Second))
		}
		time.Sleep(50 * time.Millisecond) // room for a retry that must not happen
		if got := metricSessionWriteErrors.Value() - tries; got != 2 {
			t.Errorf("logging 10 requests retried the held sessions %d times", got-2)
		}
		f.fence()
		if got := failed(4); got != 4 {
			t.Errorf("%d failed session writes after two more read ticks, want 4", got)
		}
		down.Store(false)
		f.fence()
		if n := heldSessions.Value(); n != 0 {
			t.Errorf("%d sessions still held after a tick with the file taking writes", n)
		}
		f.stop()
	})
	if live, want := f.readFile(f.opts.sessPath), f.cutReplay(); !bytes.Equal(live, want) {
		t.Fatalf("live sessions diverge from the cut-replay of the log after the outage:\nlive:\n%s\nreplay:\n%s", live, want)
	}
}

// TestQueueStragglerAfterStop: a record logged after the owner's stop
// sequence read the log (a handler past the HTTP shutdown deadline) is past
// the final checkpoint's offset, so the next start replays it into the tail.
func TestQueueStragglerAfterStop(t *testing.T) {
	first := newLiveFixture(t, withCheckpoint)
	first.start()
	first.send(request("10.0.0.1", 1, 0))
	first.stop()
	first.send(request("10.0.9.9", 2, time.Second)) // the straggler

	second := newLiveFixture(t, func(o *options) {
		o.logPath, o.sessPath, o.ckptPath = first.opts.logPath, first.opts.sessPath, first.opts.ckptPath
	})
	if got := second.own.stream.Tail.Stats().Records; got != 2 {
		t.Fatalf("recovered tail counts %d records, want the first run's one and the straggler", got)
	}
	second.start()
	second.stop()
	sessions, err := session.ReadAll(bytes.NewReader(second.readFile(second.opts.sessPath)))
	if err != nil {
		t.Fatal(err)
	}
	stragglers := 0
	for _, s := range sessions {
		if s.User == "10.0.9.9" {
			stragglers++
		}
	}
	if len(sessions) != 2 || stragglers != 1 {
		t.Fatalf("session file holds %d sessions, %d of the straggler; want one of each user", len(sessions), stragglers)
	}
}

// TestFailedLogWriteNeverReachesTheTail: a record whose access-log write
// failed is not in the log, so it must not be in the live sessions either —
// after a log outage the session file is still exactly what a -cuts replay
// of the log produces.
func TestFailedLogWriteNeverReachesTheTail(t *testing.T) {
	f := newLiveFixture(t, nil)
	f.start()
	for i := 0; i < 3; i++ {
		f.send(request("10.0.0.1", i, time.Duration(i)*time.Second))
	}
	f.s.sink.Reset(newLogWriter(&failAfterWrites{}, false)) // the disk fills
	captureStderr(t, func() { f.send(request("10.0.5.5", 4, 4*time.Second)) })
	f.s.sink.Reset(newLogWriter(f.s.logFile, false)) // a rotation reopens it
	for i := 0; i < 3; i++ {
		f.send(request("10.0.0.2", i, time.Duration(5+i)*time.Second))
	}
	f.stop()
	if live, want := f.readFile(f.opts.sessPath), f.cutReplay(); !bytes.Equal(live, want) {
		t.Fatalf("live sessions diverge from the cut-replay of the log after a failed write:\nlive:\n%s\nreplay:\n%s", live, want)
	}
}

// TestTornLineWaitsForItsNewline: the owner consumes the log only through
// its last newline. Half a line appended through another file descriptor is
// not ingested; once the rest and its newline land it is ingested, once.
func TestTornLineWaitsForItsNewline(t *testing.T) {
	f := newLiveFixture(t, nil)
	f.start()
	ingested := metricIngested.Value()
	w, err := os.OpenFile(f.opts.logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	line := request("10.0.7.7", 3, 0).String() + "\n"
	half := len(line) / 2
	if _, err := w.WriteString(line[:half]); err != nil {
		t.Fatal(err)
	}
	f.fence()
	if got := metricIngested.Value() - ingested; got != 0 {
		t.Fatalf("%d records ingested from half a line", got)
	}
	if _, err := w.WriteString(line[half:]); err != nil {
		t.Fatal(err)
	}
	f.fence()
	f.send(request("10.0.7.8", 4, time.Second))
	f.fence()
	if got := metricIngested.Value() - ingested; got != 2 {
		t.Fatalf("%d records ingested, want the completed line and the one logged after it", got)
	}
	f.stop()
	if got := f.own.stream.Tail.Stats().Records; got != 2 {
		t.Fatalf("tail saw %d records, want 2", got)
	}
	if live, want := f.readFile(f.opts.sessPath), f.cutReplay(); !bytes.Equal(live, want) {
		t.Fatalf("live sessions diverge from the replay of the log:\nlive:\n%s\nreplay:\n%s", live, want)
	}
}

// TestRotationReadsTheOldLogToItsEnd: on SIGHUP the owner reads the old log
// to its end under the log lock before both sides switch files, so records
// it had not read yet are not lost with the rotated-away file, and the live
// session file is the replay of the rotated set.
func TestRotationReadsTheOldLogToItsEnd(t *testing.T) {
	f := newLiveFixture(t, nil)
	hup := make(chan os.Signal)
	f.own.hup = hup
	for i := 0; i < 3; i++ {
		f.send(request("10.0.0.1", i, time.Duration(i)*time.Second))
	}
	// No read tick fires before the SIGHUP: only the rotation reads these.
	rotated := f.opts.logPath + ".1"
	if err := os.Rename(f.opts.logPath, rotated); err != nil {
		t.Fatal(err)
	}
	f.start()
	hup <- syscall.SIGHUP
	f.fence() // the rotation is done
	for i := 0; i < 2; i++ {
		f.send(request("10.0.0.1", 3+i, time.Duration(3+i)*time.Second))
	}
	f.stop()
	if got := f.own.stream.Tail.Stats().Records; got != 5 {
		t.Fatalf("tail saw %d records, want the 3 in the rotated log and the 2 after", got)
	}
	if n := bytes.Count(f.readFile(f.opts.logPath), []byte("\n")); n != 2 {
		t.Fatalf("the reopened log has %d lines, want 2", n)
	}
	st, err := core.NewTail(core.Config{Graph: fixtureGraph}, f.opts.sessionGap)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	n := 0
	sink := encodeInto(t, &want, &n)
	if _, err := st.IngestFiles([]string{rotated, f.opts.logPath}, clf.FilePos{}, sink, nil); err != nil {
		t.Fatal(err)
	}
	st.Drain(sink)
	if live := f.readFile(f.opts.sessPath); !bytes.Equal(live, want.Bytes()) {
		t.Fatalf("live sessions diverge from the replay of the rotated set:\nlive:\n%s\nreplay:\n%s", live, want.Bytes())
	}
}

// TestUsageErrorsNameTheirFlags: a flag combination that cannot work is
// refused before any file is opened, with a message naming the flags.
func TestUsageErrorsNameTheirFlags(t *testing.T) {
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	for _, c := range []struct {
		opts options
		want string
	}{
		{options{sessPath: in("s.txt")}, "-sessions needs -log"},
		{options{sessPath: in("s.txt"), ckptPath: in("c")}, "-sessions needs -log"},
		{options{logPath: in("a.log"), ckptPath: in("c")}, "-checkpoint needs -log and -sessions"},
	} {
		c.opts.topoPath = in("topology.json")
		if err := run(c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%+v) = %v, want an error containing %q", c.opts, err, c.want)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("a rejected run left %v behind (err %v)", ents, err)
	}
}

// TestListenerErrorKeepsOpenSessions: when the listener fails under a
// running server, serve still goes through the owner's stop sequence — the
// users' open bursts reach the session file and the final checkpoint covers
// the whole log — as it does on a signal.
func TestListenerErrorKeepsOpenSessions(t *testing.T) {
	f := newLiveFixture(t, withCheckpoint)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	result := make(chan error, 1)
	go func() { result <- f.own.serve(&http.Server{Handler: f.s.handler(f.opts)}, ln, nil) }()

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	users := []string{"10.1.0.1", "10.1.0.2", "10.1.0.3"}
	for i, user := range users {
		req, _ := http.NewRequest("GET", "http://"+ln.Addr().String()+request(user, i, 0).URI, nil)
		req.Header.Set("X-Forwarded-For", user)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET as %s: %s", user, resp.Status)
		}
	}
	ln.Close()
	if err := <-result; err == nil {
		t.Fatal("serve returned nil after its listener was closed")
	}

	sessions, err := session.ReadAll(bytes.NewReader(f.readFile(f.opts.sessPath)))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, s := range sessions {
		got[s.User] = true
	}
	for _, user := range users {
		if !got[user] {
			t.Errorf("open session of %s never reached the session file (have %d sessions)", user, len(sessions))
		}
	}
	ck, err := checkpoint.Load(checkpoint.OS, f.opts.ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if size := int64(len(f.readFile(f.opts.logPath))); ck.LogOffset != size {
		t.Fatalf("final checkpoint LogOffset = %d, log is %d bytes", ck.LogOffset, size)
	}
}

// checkpointFile frames payload as a checkpoint file of the given format
// version, with a CRC that holds.
func checkpointFile(version byte, payload []byte) []byte {
	file := append([]byte("SSRACKP"), version)
	file = binary.LittleEndian.AppendUint64(file, uint64(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
	return append(file, payload...)
}

// TestVersion1CheckpointFallsBackToFullReplay: a checkpoint an older build
// left (format version 1, gob) is not read. serve replays the whole log with
// its cut journal instead, and the session file ends as the offline
// `sessionize -cuts` replay of the log — rebuilt from byte 0, as the
// scribbled-over head of the old session file shows.
func TestVersion1CheckpointFallsBackToFullReplay(t *testing.T) {
	fallsBackToFullReplay(t, "format version 1", func([]byte) []byte {
		return checkpointFile(1, []byte("a gob stream, intact under its CRC"))
	})
}

// TestVersion2CheckpointFallsBackToFullReplay: so is the checkpoint a build
// with the drop ledger left (format version 2): this run's own checkpoint
// re-framed the way that build wrote it, with an empty drop-span list at the
// end of the payload.
func TestVersion2CheckpointFallsBackToFullReplay(t *testing.T) {
	fallsBackToFullReplay(t, "format version 2", func(current []byte) []byte {
		return checkpointFile(2, append(bytes.Clone(current[20:]), 0))
	})
}

// TestUndecodableCheckpointFallsBackToFullReplay: so is a checkpoint of this
// format version whose CRC holds but whose payload does not decode: this
// run's own checkpoint with a byte after its payload.
func TestUndecodableCheckpointFallsBackToFullReplay(t *testing.T) {
	fallsBackToFullReplay(t, "1 trailing bytes", func(current []byte) []byte {
		return checkpointFile(current[7], append(bytes.Clone(current[20:]), 0))
	})
}

// fallsBackToFullReplay runs serve, replaces its checkpoint with old(the
// checkpoint it wrote), scribbles over the session file's head, and requires
// the next run to refuse the checkpoint, saying why, and rebuild the session
// file as the cut-replay of the log.
func fallsBackToFullReplay(t *testing.T, why string, old func(current []byte) []byte) {
	first := newLiveFixture(t, withCheckpoint)
	first.start()
	for i := 0; i < 12; i++ {
		first.send(request(fmt.Sprintf("10.0.0.%d", i%4), i, time.Duration(i)*time.Second))
	}
	first.fence()
	first.clock = t0.Add(session.DefaultPageStay + time.Minute)
	first.expire <- time.Time{}
	first.fence() // the sweep is done before later records are logged
	for i := 0; i < 6; i++ {
		first.send(request(fmt.Sprintf("10.0.0.%d", i%4), 12+i, 20*time.Minute+time.Duration(i)*time.Second))
	}
	first.stop()

	if err := os.WriteFile(first.opts.ckptPath, old(first.readFile(first.opts.ckptPath)), 0o644); err != nil {
		t.Fatal(err)
	}
	scribbled := first.readFile(first.opts.sessPath)
	if len(scribbled) < 16 {
		t.Fatalf("first run wrote %d session bytes", len(scribbled))
	}
	copy(scribbled, "XXXXXXXXXXXXXXXX")
	if err := os.WriteFile(first.opts.sessPath, scribbled, 0o644); err != nil {
		t.Fatal(err)
	}

	var second *liveFixture
	stderr := captureStderr(t, func() {
		second = newLiveFixture(t, func(o *options) {
			o.logPath, o.sessPath, o.ckptPath = first.opts.logPath, first.opts.sessPath, first.opts.ckptPath
		})
	})
	if !strings.Contains(stderr, why) {
		t.Fatalf("recovery's stderr does not say %q:\n%s", why, stderr)
	}
	second.start()
	for i := 0; i < 4; i++ {
		second.send(request(fmt.Sprintf("10.0.1.%d", i), i, 40*time.Minute+time.Duration(i)*time.Second))
	}
	second.stop()

	cuts, err := core.ReadCuts(bytes.NewReader(second.readFile(second.opts.sessPath + ".cuts")))
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 {
		t.Fatalf("journal holds %d cuts, want the first run's one", len(cuts))
	}
	if live, want := second.readFile(second.opts.sessPath), second.replay(cuts); !bytes.Equal(live, want) {
		t.Fatalf("session file after the fallback diverges from the cut-replay of the log:\nlive:\n%s\nreplay:\n%s", live, want)
	}
	ck, err := checkpoint.Load(checkpoint.OS, second.opts.ckptPath)
	if err != nil {
		t.Fatalf("no readable checkpoint after the fallback: %v", err)
	}
	if size := int64(len(second.readFile(second.opts.logPath))); ck.LogOffset != size {
		t.Fatalf("final checkpoint LogOffset = %d, log is %d bytes", ck.LogOffset, size)
	}
}

// heldSessions is the owner's gauge of sessions the session file refused.
var heldSessions = metrics.GetGauge("serve.sessions.held")

// faultSessionWrites puts a faultio.Writer with this schedule in front of
// every session file an owner opens from now until the test ends.
func faultSessionWrites(t *testing.T, writes faultio.Schedule) {
	old := sessionWriter
	sessionWriter = func(f *os.File) io.Writer { return &faultio.Writer{W: f, Schedule: writes} }
	t.Cleanup(func() { sessionWriter = old })
}

// land fences until the owner holds no sessions: held sessions are retried
// on each message the owner takes, so an outage ends on a later read tick.
func (f *liveFixture) land() {
	f.t.Helper()
	for i := 0; i < 1000; i++ {
		f.fence()
		if heldSessions.Value() == 0 {
			return
		}
	}
	f.t.Fatalf("%d sessions still held after 1000 fences", heldSessions.Value())
}

// TestFailedSessionWriteKeepsOrder: a session batch the file refuses is
// neither dropped nor overtaken. Seven torn writes in a row hold user A's
// session while user B's is logged; once the file takes writes again it holds
// A's session before B's, exactly as the -cuts replay of the log does. The
// outage is reported once when it starts and once when it ends.
func TestFailedSessionWriteKeepsOrder(t *testing.T) {
	f := newLiveFixture(t, nil)
	f.own.stream.Out.W = &faultio.Writer{W: f.own.stream.Out.F, Schedule: faultio.FaultAt(faultio.Short, 0, 1, 2, 3, 4, 5, 6)}
	past := session.DefaultPageStay + time.Minute
	stderr := captureStderr(t, func() {
		f.start()
		for _, r := range []clf.Record{
			request("10.0.0.1", 0, 0), request("10.0.0.1", 1, time.Second), request("10.0.0.1", 2, past),
			request("10.0.0.2", 3, past+time.Second), request("10.0.0.2", 4, past+2*time.Second), request("10.0.0.2", 5, 2*past),
		} {
			f.send(r)
			f.fence()
		}
		f.land()
		f.stop()
	})
	if live, want := f.readFile(f.opts.sessPath), f.cutReplay(); !bytes.Equal(live, want) {
		t.Fatalf("live sessions diverge from the cut-replay of the log after failed session writes:\nlive:\n%s\nreplay:\n%s", live, want)
	}
	if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 2 ||
		!strings.Contains(lines[0], "serve: session write: session: write: faultio: injected fault: short write 0") ||
		!strings.Contains(lines[1], "held sessions landed in "+f.opts.sessPath) {
		t.Fatalf("stderr for one outage, want its first failure and its end:\n%s", stderr)
	}
}

// Modes of a seeded session-write schedule.
const (
	writesRandom int32 = iota // the seed's own failed and torn writes
	writesDown                // every write fails: a long outage
	writesClean               // every write lands
)

// seededWrites is a session-write schedule: in writesRandom mode each write
// fails (Fail or Short, half each) with probability 1/4, by the seed.
func seededWrites(rng *rand.Rand, mode *atomic.Int32) faultio.Schedule {
	faults := make([]faultio.Fault, 4096)
	for i := range faults {
		if rng.Intn(4) == 0 {
			faults[i] = faultio.Fault(1 + rng.Intn(2))
		}
	}
	return func(call int) faultio.Fault {
		switch mode.Load() {
		case writesDown:
			return faultio.Fail
		case writesRandom:
			if call < len(faults) {
				return faults[call]
			}
		}
		return faultio.OK
	}
}

// simRecord is a simulated request as the access log records it.
func simRecord(r simulator.Request) clf.Record {
	rec := testRecord(0)
	rec.Host, rec.URI, rec.Time = r.User, r.URI, r.At
	return rec
}

// TestSessionWriteOutagesMatchCutReplay: under seeded session-write faults —
// failed and torn writes at random, and one long outage — beside expiry
// ticks, checkpoint ticks and a SIGHUP, the live session file ends equal to
// the -cuts replay of the log. No checkpoint is saved while sessions are
// held, and during the long outage the owner reads none of the requests the
// server keeps logging.
func TestSessionWriteOutagesMatchCutReplay(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { sessionWriteOutage(t, seed, false) })
	}
}

// TestSessionWriteOutageAbandonedOwnerRestarts: an owner abandoned in the
// long outage, with no stop sequence — what a SIGKILL leaves behind: the
// last checkpoint from before the outage, a session file perhaps ending in a
// torn write, and a log the owner stopped reading — is followed by a second
// owner on the same directory, which recovers to the -cuts replay's bytes.
func TestSessionWriteOutageAbandonedOwnerRestarts(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { sessionWriteOutage(t, seed, true) })
	}
}

func sessionWriteOutage(t *testing.T, seed int64, abandon bool) {
	rng := rand.New(rand.NewSource(seed))
	params := simulator.PaperParams()
	params.Agents, params.Seed = 12, seed
	res, err := simulator.Run(fixtureGraph, params)
	if err != nil {
		t.Fatal(err)
	}
	reqs := res.Schedule(fixtureGraph)
	var mode atomic.Int32
	faultSessionWrites(t, seededWrites(rng, &mode))
	f := newLiveFixture(t, withCheckpoint)
	saves, heldSaves := 0, 0
	f.own.stream.Ckpt = checkpoint.NewWriter(hookFS{FS: checkpoint.OS, beforeCreate: func() {
		saves++
		if heldSessions.Value() > 0 {
			heldSaves++
		}
	}}, f.opts.ckptPath, 0)
	hup := make(chan os.Signal)
	f.own.hup = hup
	outage, hupAt := len(reqs)/4+rng.Intn(len(reqs)/4), rng.Intn(len(reqs))

	var second *liveFixture
	stderr := captureStderr(t, func() {
		f.start()
		inOutage, rest := false, []simulator.Request(nil)
		for i, r := range reqs {
			if i == outage {
				mode.Store(writesDown)
				inOutage = true
			}
			f.send(simRecord(r))
			if inOutage || rng.Intn(2) == 0 {
				f.fence()
			}
			if rng.Intn(20) == 0 {
				f.clock = r.At.Add(time.Duration(rng.Int63n(int64(2 * session.DefaultPageStay))))
				f.expire <- time.Time{}
				f.fence() // the owner has read the clock
			}
			if rng.Intn(20) == 0 {
				f.ckpt <- time.Time{}
			}
			if i == hupAt {
				hup <- syscall.SIGHUP
			}
			if !inOutage || heldSessions.Value() == 0 {
				continue
			}
			// The long outage holds sessions: the owner reads no more of
			// the log, however many requests are logged.
			ingested, requests := metricIngested.Value(), metricRequests.Value()
			for k := 0; k < 5; k++ {
				late := r
				late.User, late.At = "10.200.0.1", r.At.Add(time.Duration(k)*time.Second)
				f.send(simRecord(late))
				f.fence()
			}
			if got := metricIngested.Value() - ingested; got != 0 {
				t.Errorf("serve.ingest.records grew by %d while sessions were held", got)
			}
			if got := metricRequests.Value() - requests; got != 5 {
				t.Errorf("serve.requests grew by %d during the outage, want 5", got)
			}
			held, saved := heldSessions.Value(), saves
			f.clock = r.At.Add(3 * session.DefaultPageStay) // every open burst is past ρ
			f.expire <- time.Time{}
			f.ckpt <- time.Time{}
			f.fence()
			if got := heldSessions.Value(); got != held {
				t.Errorf("an expiry during the outage took the held sessions from %d to %d", held, got)
			}
			if saves != saved {
				t.Error("a checkpoint tick during the outage saved a checkpoint")
			}
			inOutage, rest = false, reqs[i+1:]
			if abandon {
				break
			}
			mode.Store(writesRandom)
		}
		if rest == nil {
			t.Fatal("the long outage never held a session")
		}
		if !abandon {
			mode.Store(writesClean)
			f.land()
			f.ckpt <- time.Time{} // one save with nothing held, at least
			f.stop()
			return
		}
		// Abandon the owner as a kill would: its files close under it, with
		// no stop sequence. A message it still takes finds them closed.
		f.own.close()
		sessionWriter = func(f *os.File) io.Writer { return f }
		second = newLiveFixture(t, func(o *options) {
			o.logPath, o.sessPath, o.ckptPath = f.opts.logPath, f.opts.sessPath, f.opts.ckptPath
		})
		second.start()
		for _, r := range rest {
			second.send(simRecord(r))
		}
		second.stop()
		f.stop() // only now, so its stop sequence cannot touch the files
	})
	if heldSaves > 0 {
		t.Errorf("%d of %d checkpoints were saved while sessions were held", heldSaves, saves)
	}
	if saves == 0 && !abandon {
		t.Error("no checkpoint was saved: the test exercised nothing")
	}
	last := f
	if abandon {
		last = second
	}
	if live, want := last.readFile(last.opts.sessPath), last.cutReplay(); !bytes.Equal(live, want) {
		t.Fatalf("live sessions diverge from the cut-replay of the log (%d requests, outage at %d, SIGHUP at %d):\nlive:\n%s\nreplay:\n%s\nstderr:\n%s",
			len(reqs), outage, hupAt, live, want, stderr)
	}
}

// TestFailedSessionSyncSavesNoCheckpoint: a checkpoint says the session file
// holds SinkOffset bytes on disk, so a failed sync of the session file skips
// the save, as a failed log or cut-journal sync does, and the previous
// checkpoint stays.
func TestFailedSessionSyncSavesNoCheckpoint(t *testing.T) {
	f := newLiveFixture(t, withCheckpoint)
	saves := 0
	f.own.stream.Ckpt = checkpoint.NewWriter(hookFS{FS: checkpoint.OS, beforeCreate: func() { saves++ }}, f.opts.ckptPath, 0)
	f.start()
	f.send(request("10.0.0.1", 0, 0))
	f.send(request("10.0.0.1", 1, session.DefaultPageStay+time.Minute)) // the first burst is a session
	f.fence()
	if len(f.readFile(f.opts.sessPath)) == 0 {
		t.Fatal("no session was written")
	}
	before := f.readFile(f.opts.ckptPath)
	f.own.stream.Out.F.Close() // its sync fails now, as a disk's can
	stderr := captureStderr(t, func() {
		f.ckpt <- time.Time{}
		f.stop()
	})
	if saves != 0 || !bytes.Equal(f.readFile(f.opts.ckptPath), before) {
		t.Fatalf("%d checkpoints saved after the session file failed to sync", saves)
	}
	if !strings.Contains(stderr, "serve: checkpoint: session file sync: ") {
		t.Fatalf("the skipped save was not reported:\n%s", stderr)
	}
}

// TestStartupReplayWithFailingSessionWrites: a start-up replay whose
// sessions the session file refuses is stopped and fails start-up (serve
// exits 1), rather than holding a whole replay's sessions in memory.
func TestStartupReplayWithFailingSessionWrites(t *testing.T) {
	first := newLiveFixture(t, withCheckpoint)
	first.start()
	for i := 0; i < 12; i++ {
		first.send(request(fmt.Sprintf("10.0.0.%d", i%4), i, time.Duration(i)*session.DefaultPageStay/3))
	}
	first.stop()
	if err := os.Remove(first.opts.ckptPath); err != nil { // recovery replays the whole log
		t.Fatal(err)
	}
	faultSessionWrites(t, faultio.FailAfter(0))
	var err error
	captureStderr(t, func() {
		var o *owner
		if o, err = newOwner(first.opts); err == nil {
			o.close()
		}
	})
	if want := "replay " + first.opts.logPath + ": "; !errors.Is(err, faultio.ErrInjected) || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("newOwner = %v, want %q followed by the refused write", err, want)
	}
}

// TestOldDeadLetterJournalIsNamedAtStartup: an older build kept refused
// sessions in <sessions>.deadletter. Nothing reads that file now; a
// non-empty one is named once at start-up, with its size, and left as it is.
func TestOldDeadLetterJournalIsNamedAtStartup(t *testing.T) {
	dir := t.TempDir()
	journal := []byte("10.0.0.1:[0]\n")
	dead := filepath.Join(dir, "sessions.txt.deadletter")
	if err := os.WriteFile(dead, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr := captureStderr(t, func() {
		newLiveFixture(t, func(o *options) { o.sessPath = filepath.Join(dir, "sessions.txt") }).start()
	})
	if want := fmt.Sprintf("serve: %s (%d bytes) is an older build's dead-letter journal", dead, len(journal)); strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, want) {
		t.Fatalf("start-up stderr, want one line %q…:\n%s", want, stderr)
	}
	if got, err := os.ReadFile(dead); err != nil || !bytes.Equal(got, journal) {
		t.Fatalf("the old journal was touched: %q, %v", got, err)
	}
}

// TestStopWithSessionWritesHeldLeavesNoTornWrite: stopping in an outage
// writes nothing more and saves no checkpoint, and the session file is cut
// back to its last complete batch — a torn attempt would be the head of
// whatever the next run appends.
func TestStopWithSessionWritesHeldLeavesNoTornWrite(t *testing.T) {
	f := newLiveFixture(t, nil)
	f.own.stream.Out.W = &faultio.Writer{W: f.own.stream.Out.F, Schedule: func(call int) faultio.Fault {
		if call == 0 {
			return faultio.OK
		}
		return faultio.Short
	}}
	past := session.DefaultPageStay + time.Minute
	stderr := captureStderr(t, func() {
		f.start()
		f.send(request("10.0.0.1", 0, 0))
		f.send(request("10.0.0.1", 1, past)) // the first session lands
		f.fence()
		f.send(request("10.0.0.1", 2, 2*past)) // the second is held
		f.fence()
		f.stop()
	})
	if live := f.readFile(f.opts.sessPath); string(live) != "10.0.0.1:[0]\n" {
		t.Fatalf("session file after a stop in an outage = %q, want the one session that landed", live)
	}
	if !strings.Contains(stderr, "serve: stopping with 2 sessions held") {
		t.Fatalf("the stop did not report the held sessions:\n%s", stderr)
	}
}
