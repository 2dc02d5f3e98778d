package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/session"
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

	expire, ckpt, reconcile chan time.Time
	clock                   time.Time // what own.now returns
	stopped                 bool
}

// t0 is where the fixtures' request times start.
var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// fixtureGraph is the topology every fixture serves.
var fixtureGraph = func() *webgraph.Graph {
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 40, AvgOutDegree: 6, StartPageFraction: 0.1,
		Model: webgraph.ModelUniform, EnsureReachable: true,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		panic(err)
	}
	return g
}()

// newLiveFixture builds the owner for {-log, -sessions, -ingest-queue 64,
// 503 mode} in a fresh directory, adjusted by mut (which sees the paths, so
// it can point ckptPath into opts' directory). The owner goroutine is not
// running until start.
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
	f := &liveFixture{t: t, clock: t0,
		expire: make(chan time.Time), ckpt: make(chan time.Time), reconcile: make(chan time.Time)}
	f.opts = options{
		topoPath: filepath.Join(dir, "topology.json"),
		logPath:  filepath.Join(dir, "access.log"),
		sessPath: filepath.Join(dir, "sessions.txt"),
		queueCap: 64,
		shedMode: shed503,
		trustFwd: true,
	}
	if mut != nil {
		mut(&f.opts)
	}
	if f.own, err = newOwner(f.opts); err != nil {
		t.Fatal(err)
	}
	f.s = f.own.s
	f.own.now = func() time.Time { return f.clock }
	f.own.expireTick, f.own.ckptTick, f.own.reconcileTick = f.expire, f.ckpt, f.reconcile
	t.Cleanup(func() {
		if !f.stopped {
			f.stop(time.Second)
		}
		f.own.close()
	})
	return f
}

func (f *liveFixture) start() { go f.own.run() }

func (f *liveFixture) stop(wait time.Duration) bool {
	f.stopped = true
	return f.own.stop(wait)
}

// request is user asking for one of the fixture topology's pages, at after t0.
func request(user string, page int, at time.Duration) clf.Record {
	r := testRecord(0)
	r.Host, r.Time = user, t0.Add(at)
	r.URI = fixtureGraph.Label(webgraph.PageID(page % fixtureGraph.NumPages()))
	return r
}

// send is the request path for one record: the shed gate's reservation in
// 503 mode, then the access logger's sink.
func (f *liveFixture) send(r clf.Record) {
	f.t.Helper()
	if f.s.shedMode == shed503 && !f.s.tryReserve() {
		f.t.Fatal("ingest queue full")
	}
	f.s.Record(r)
}

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

// waitIdle returns once every record sent so far is pushed and its sessions
// written (its queue slot released).
func (f *liveFixture) waitIdle() {
	f.t.Helper()
	f.spin("the queue to empty", func() bool { return f.s.pending.Load() == 0 })
}

// fence returns once the owner has finished every message it took before: it
// takes one more, a reconcile tick, which with no drop ledger does nothing.
func (f *liveFixture) fence() { f.reconcile <- time.Time{} }

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
	f.waitIdle()
	f.clock = t0.Add(session.DefaultPageStay + time.Minute) // every burst so far is past ρ
	f.expire <- time.Time{}
	f.fence()
	for i := 0; i < m; i++ {
		f.send(request(fmt.Sprintf("10.0.0.%d", i%3), k+i, 20*time.Minute+time.Duration(i)*time.Second))
	}
	if !f.stop(5 * time.Second) {
		t.Fatal("stop did not settle")
	}

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
// checkpoint save: before the temp file is created, and before it is renamed
// over the checkpoint (when it is complete, and the owner still holds the log
// lock).
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

// TestQueueBarrierWaitsForProcessing: a checkpoint's barrier is the log lock
// plus the owner emptying its own queue, so no checkpoint may hold a record
// that is logged but not yet in the tail. With eight goroutines requesting
// pages throughout, every checkpoint saved must cover exactly the log lines
// its tail snapshot counted and exactly the session bytes written.
func TestQueueBarrierWaitsForProcessing(t *testing.T) {
	f := newLiveFixture(t, withCheckpoint)
	saves := 0
	f.own.ckpt = checkpoint.NewWriter(hookFS{FS: checkpoint.OS, beforeRename: func(tmp string) {
		// On the owner goroutine, inside Save, under the log lock.
		saves++
		ck, err := checkpoint.Load(checkpoint.OS, tmp)
		if err != nil {
			t.Error(err)
			return
		}
		log := f.readFile(f.opts.logPath)
		if int64(len(log)) != ck.LogOffset || bytes.Count(log, []byte("\n")) != ck.Tail.Stats.Records {
			t.Errorf("checkpoint %d: LogOffset %d with %d records in the tail, but the log is %d bytes in %d lines",
				saves, ck.LogOffset, ck.Tail.Stats.Records, len(log), bytes.Count(log, []byte("\n")))
		}
		if sess := f.readFile(f.opts.sessPath); ck.SinkOffset != f.own.tee.good || ck.SinkOffset != int64(len(sess)) {
			t.Errorf("checkpoint %d: SinkOffset %d, session file known good to %d of %d bytes",
				saves, ck.SinkOffset, f.own.tee.good, len(sess))
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
	if !f.stop(5 * time.Second) { // one more checkpoint, the final one
		t.Fatal("stop did not settle")
	}
	if saves < 3 {
		t.Fatalf("only %d checkpoints were saved beside the traffic", saves)
	}
	if lines := bytes.Count(f.readFile(f.opts.logPath), []byte("\n")); lines == 0 {
		t.Fatal("no request was logged")
	}
}

// TestFreezeIsTheLogLockOnly pins what a checkpoint save stops today, so the
// day the save moves off the request path (ROADMAP item 2, Overlap) this test
// shows it. While the owner is inside checkpoint.Save it holds the log lock
// and nothing else: /debug/metrics answers, a page request is served up to
// its log append and waits there, and an expiry tick — which needs no lock —
// waits only because the owner is busy saving, and runs the moment it is not.
func TestFreezeIsTheLogLockOnly(t *testing.T) {
	f := newLiveFixture(t, withCheckpoint)
	hold, entered, release := true, make(chan struct{}), make(chan struct{})
	f.own.ckpt = checkpoint.NewWriter(hookFS{FS: checkpoint.OS, beforeCreate: func() {
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

	h := f.s.handler(f.opts)
	if f.s.logMu.TryLock() {
		t.Fatal("the log lock is free during a checkpoint save")
	}
	metrics := httptest.NewRecorder()
	h.ServeHTTP(metrics, httptest.NewRequest("GET", "/debug/metrics", nil))
	if metrics.Code != http.StatusOK || !strings.Contains(metrics.Body.String(), "serve.requests") {
		t.Fatalf("/debug/metrics during a save: status %d", metrics.Code)
	}
	f.clock = t0.Add(session.DefaultPageStay + time.Minute) // the first request's burst is past ρ
	expired := make(chan struct{})
	go func() {
		f.expire <- time.Time{}
		close(expired)
	}()
	logged := metricRequests.Value()
	lines := bytes.Count(f.readFile(f.opts.logPath), []byte("\n"))
	served := make(chan *httptest.ResponseRecorder, 1)
	go func() { served <- page(h, "10.0.0.2", 2) }()
	f.spin("the page request to reach its log append", func() bool { return metricRequests.Value() > logged })
	select {
	case <-served:
		t.Fatal("a page request completed while the checkpoint held the log lock")
	case <-expired:
		t.Fatal("the owner took an expiry tick while it was inside Save")
	default:
	}

	release <- struct{}{}
	if w := <-served; w.Code != http.StatusOK {
		t.Fatalf("page request after the save: status %d", w.Code)
	}
	<-expired
	if !f.stop(5 * time.Second) {
		t.Fatal("stop did not settle")
	}
	if got := bytes.Count(f.readFile(f.opts.logPath), []byte("\n")); got != lines+1 {
		t.Fatalf("log has %d lines after the blocked request completed, want %d", got, lines+1)
	}
	if cuts := f.readFile(f.opts.sessPath + ".cuts"); bytes.Count(cuts, []byte("\n")) != 1 {
		t.Fatalf("the expiry tick that waited out the save journaled %q, want one cut", cuts)
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
	f.stopped = true // serve stops the owner itself

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

// TestVersion1CheckpointFallsBackToFullReplay: a checkpoint an older build
// left (format version 1, gob) is not read. serve replays the whole log with
// its cut journal instead, and the session file ends as the offline
// `sessionize -cuts` replay of the log — rebuilt from byte 0, as the
// scribbled-over head of the old session file shows.
func TestVersion1CheckpointFallsBackToFullReplay(t *testing.T) {
	first := newLiveFixture(t, withCheckpoint)
	first.start()
	for i := 0; i < 12; i++ {
		first.send(request(fmt.Sprintf("10.0.0.%d", i%4), i, time.Duration(i)*time.Second))
	}
	first.waitIdle()
	first.clock = t0.Add(session.DefaultPageStay + time.Minute)
	first.expire <- time.Time{}
	for i := 0; i < 6; i++ {
		first.send(request(fmt.Sprintf("10.0.0.%d", i%4), 12+i, 20*time.Minute+time.Duration(i)*time.Second))
	}
	if !first.stop(5 * time.Second) {
		t.Fatal("first run did not settle")
	}

	payload := []byte("a gob stream, intact under its CRC")
	v1 := append([]byte("SSRACKP\x01"), binary.LittleEndian.AppendUint64(nil, uint64(len(payload)))...)
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(first.opts.ckptPath, append(v1, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	old := first.readFile(first.opts.sessPath)
	if len(old) < 16 {
		t.Fatalf("first run wrote %d session bytes", len(old))
	}
	copy(old, "XXXXXXXXXXXXXXXX")
	if err := os.WriteFile(first.opts.sessPath, old, 0o644); err != nil {
		t.Fatal(err)
	}

	second := newLiveFixture(t, func(o *options) {
		o.logPath, o.sessPath, o.ckptPath = first.opts.logPath, first.opts.sessPath, first.opts.ckptPath
	})
	second.start()
	for i := 0; i < 4; i++ {
		second.send(request(fmt.Sprintf("10.0.1.%d", i), i, 40*time.Minute+time.Duration(i)*time.Second))
	}
	if !second.stop(5 * time.Second) {
		t.Fatal("second run did not settle")
	}

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

// dropFixture is a drop-count server with a one-slot queue whose owner has
// not started: the first record takes the slot, and the n that follow are all
// shed into the ledger as one coalesced span.
func dropFixture(t *testing.T, first clf.Record, n int, dropped func(i int) clf.Record) *liveFixture {
	f := newLiveFixture(t, func(o *options) { o.shedMode, o.queueCap = shedDropCount, 1 })
	f.send(first)
	for i := 0; i < n; i++ {
		f.send(dropped(i))
	}
	if spans := f.s.drops.snapshot(); len(spans) != 1 || spans[0].Records != int64(n) {
		t.Fatalf("ledger = %+v, want one span of %d records", spans, n)
	}
	return f
}

// TestReconcilePassIsBounded: a span however long is backfilled in passes of
// at most reconcileReadMax log bytes and drainBatchMax records, and ends
// fully reconciled: every logged request reached the sessionizer.
func TestReconcilePassIsBounded(t *testing.T) {
	const n = 10000
	requests, enqueued, reconciled := metricRequests.Value(), metricEnqueued.Value(), metricDropsReconciled.Value()
	f := dropFixture(t, request("10.9.9.9", 0, 0), n, func(i int) clf.Record {
		return request(fmt.Sprintf("10.2.%d.%d", i/250, i%250), i, 0)
	})
	// The test goroutine is the owner here: it takes the queued record and
	// then runs the passes by hand, looking at the ledger between them.
	f.own.pushFrom(<-f.s.ch)
	passes := 0
	for more := true; more; passes++ {
		before := f.s.drops.snapshot()[0]
		more = f.own.reconcilePass()
		after := checkpoint.DropSpan{Start: before.End, End: before.End}
		if spans := f.s.drops.snapshot(); len(spans) > 0 {
			after = spans[0]
		}
		if read, recs := after.Start-before.Start, before.Records-after.Records; read <= 0 || read > reconcileReadMax || recs <= 0 || recs > drainBatchMax {
			t.Fatalf("pass %d consumed %d bytes and %d records, want at most %d and %d", passes, read, recs, reconcileReadMax, drainBatchMax)
		}
		if more != (f.s.drops.pending() > 0) {
			t.Fatalf("pass %d reported more=%v with %d records owed", passes, more, f.s.drops.pending())
		}
	}
	if passes < n/drainBatchMax {
		t.Fatalf("%d records took %d passes", n, passes)
	}
	if got := f.own.tee.st.Stats().Records; got != n+1 {
		t.Fatalf("tail saw %d records, want %d", got, n+1)
	}
	if r, e := metricRequests.Value()-requests, metricEnqueued.Value()-enqueued; r != n+1 || e != r {
		t.Fatalf("serve.requests grew by %d and serve.ingest.enqueued by %d, want both %d", r, e, n+1)
	}
	if got := metricDropsReconciled.Value() - reconciled; got != n || metricDropsPending.Value() != 0 {
		t.Fatalf("reconciled %d of %d with %d pending", got, n, metricDropsPending.Value())
	}
	f.stopped = true // the owner goroutine never ran
}

// TestLiveRecordOvertakesReconcile: backfill yields to live traffic between
// passes. Each user of the dropped span makes two requests an hour apart, so
// pushing the second writes that user's first session at once — the session
// file is a journal of push order, 128 sessions a pass. A live record sent
// while the owner is inside the span's third pass must land in that journal
// straight after that pass, ahead of the thirty-odd still to come.
func TestLiveRecordOvertakesReconcile(t *testing.T) {
	const users, liveUser, heldPass = 5000, "10.9.9.9", 3
	spanUser := func(u int) string { return fmt.Sprintf("10.3.%d.%d", u/250, u%250) }
	f := dropFixture(t, request(liveUser, 0, 0), 2*users, func(i int) clf.Record {
		return request(spanUser(i/2), i/2, time.Duration(i%2)*time.Hour)
	})
	// The session sink's write runs on the owner goroutine, once a pass.
	held, resume := make(chan struct{}), make(chan struct{})
	writes := 0
	f.own.tee.sink = core.NewRetrySink(func(batch []session.Session) error {
		if writes++; writes == heldPass {
			held <- struct{}{}
			<-resume
		}
		return f.own.tee.writeBatch(batch)
	}, core.RetryOptions{DeadLetter: f.own.tee.dead})
	f.start()
	f.waitIdle()
	f.reconcile <- time.Time{}
	<-held
	f.send(request(liveUser, 1, time.Hour)) // pushing it closes the live user's first burst
	resume <- struct{}{}
	f.spin("the ledger to empty", func() bool { return metricDropsPending.Value() == 0 })
	if !f.stop(5 * time.Second) {
		t.Fatal("stop did not settle")
	}

	sessions, err := session.ReadAll(bytes.NewReader(f.readFile(f.opts.sessPath)))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2*(users+1) {
		t.Fatalf("%d sessions written, want two for each of %d users", len(sessions), users+1)
	}
	live := -1
	for i, s := range sessions[:users+1] { // the journal; the rest is the final Drain
		if s.User == liveUser {
			live = i
		}
	}
	if want := heldPass * drainBatchMax / 2; live != want {
		t.Fatalf("the live record's session is #%d in push order, want #%d: right behind pass %d", live, want, heldPass)
	}
}
