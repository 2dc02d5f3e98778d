package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// TestSessionizerConcurrentExpire: a wall-clock expiry tick beside Ingest —
// the sessionize -stream periodic expiry path — runs on the ingesting
// goroutine between chunks, however eagerly it fires, and loses no record.
// The golden log's records are historical, so each Expire(now) closes every
// open burst and the session split legitimately differs from the golden one;
// every record must still be consumed, and nothing may deadlock or race. The
// log's second half is held back until a tick has been taken, so at least one
// lands between chunks however the goroutines are scheduled.
func TestSessionizerConcurrentExpire(t *testing.T) {
	log := readGolden(t, "golden.log")
	tick := make(chan time.Time)
	st, err := NewTail(Config{Graph: goldenGraph(), StreamChunkBytes: 256, ExpireTick: tick}, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop, ticks, taken := make(chan struct{}), make(chan int), make(chan struct{})
	go func() {
		n := 0
		defer func() { ticks <- n }()
		for {
			select {
			case tick <- time.Now():
				if n++; n == 1 {
					close(taken)
				}
			case <-stop:
				return
			}
		}
	}()
	var got []session.Session
	half := len(log) / 2
	in := io.MultiReader(bytes.NewReader(log[:half]), &heldReader{bytes.NewReader(log[half:]), taken})
	_, err = st.Ingest(in, keep(&got), nil)
	close(stop)
	fired := <-ticks
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, st.Flush()...)
	refRecords, _, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Stats().Records; n != len(refRecords) {
		t.Fatalf("ticking Expire lost records: processed %d, want %d", n, len(refRecords))
	}
	if fired == 0 {
		t.Fatal("no tick was taken between the chunks")
	}
	if st.Buffered() != 0 {
		t.Fatalf("%d entries still buffered after Flush", st.Buffered())
	}
	if len(got) == 0 {
		t.Fatal("no sessions emitted")
	}
}

// heldReader reads r once ready is closed; after 30 s without it, it fails.
type heldReader struct {
	r     io.Reader
	ready <-chan struct{}
}

func (h *heldReader) Read(p []byte) (int, error) {
	select {
	case <-h.ready:
		return h.r.Read(p)
	case <-time.After(30 * time.Second):
		return 0, errors.New("held input: no tick was taken")
	}
}

// TestTickIsACut: an expiry tick fired by hand after N records — while the
// pipe Ingest reads is idle, so the tick is all the ingesting goroutine has
// to take — is the cut {Records: N, At: the tick's time}: the sessions, and
// their order, are byte-identical to IngestFilesCuts replaying that cut over
// the same log. Ingest leaves no goroutine behind.
func TestTickIsACut(t *testing.T) {
	g := golden2Graph(t)
	log := readGolden(t, "golden2.log")
	records, bad, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil || bad != 0 {
		t.Fatalf("ReadAll: %d malformed, err %v", bad, err)
	}
	n := len(records) / 2
	head := 0 // bytes of the first n lines
	for range n {
		head += bytes.IndexByte(log[head:], '\n') + 1
	}
	at := records[n-1].Time.Add(session.DefaultPageStay + time.Minute)

	logPath := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(logPath, log, 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []session.Session
	if _, err := ref.IngestFilesCuts([]string{logPath}, clf.FilePos{}, 0, []ExpiryCut{{Seq: 1, Records: int64(n), At: at}}, keep(&want), nil); err != nil {
		t.Fatal(err)
	}
	want = append(want, ref.Flush()...)
	if bytes.Equal(renderSessions(t, want), readGolden(t, "golden2.stream.sessions")) {
		t.Fatal("the cut changes no session: the comparison would hold without a tick")
	}

	before := runtime.NumGoroutine()
	tick := make(chan time.Time)
	tl, err := NewTail(Config{Graph: g, ExpireTick: tick}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	pushed, written := make(chan struct{}), make(chan error, 1)
	go func() {
		if _, err := pw.Write(log[:head]); err != nil {
			written <- err
			return
		}
		giveUp := func(why string) {
			err := errors.New(why)
			pw.CloseWithError(err)
			written <- err
		}
		select {
		case <-pushed: // the first n records are in; the pipe is idle
		case <-time.After(30 * time.Second):
			giveUp("the first records were never pushed")
			return
		}
		select {
		case tick <- at:
		case <-time.After(30 * time.Second):
			giveUp("the tick was never taken")
			return
		}
		_, err := pw.Write(log[head:])
		pw.Close()
		written <- err
	}()
	var got []session.Session
	_, err = tl.Ingest(pr, keep(&got), func(pos clf.FilePos) error {
		if pos.Offset == int64(head) {
			close(pushed)
		}
		return nil
	})
	if werr := <-written; werr != nil {
		t.Fatalf("writer: %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, tl.Flush()...)
	if !bytes.Equal(renderSessions(t, got), renderSessions(t, want)) {
		t.Fatalf("tick after %d records: %d sessions, cut replay %d; want the same bytes", n, len(got), len(want))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Ingest returned, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
