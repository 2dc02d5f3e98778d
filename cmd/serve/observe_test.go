package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/webserver"
)

// failAfterWrites accepts its first ok writes and fails every later one —
// a disk that fills.
type failAfterWrites struct {
	ok  int
	buf bytes.Buffer
}

func (f *failAfterWrites) Write(p []byte) (int, error) {
	if f.ok == 0 {
		return 0, errors.New("no space left on device")
	}
	f.ok--
	return f.buf.Write(p)
}

// captureStderr runs f with os.Stderr pointed at a file and returns what was
// written to it.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	old := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = old }()
	f()
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// A log that stops taking writes costs every later request a count and the
// first one a stderr line — not one blocking stderr write per request; a
// rotation re-arms the report and logging resumes on the reopened file.
func TestLogWriteFailureReportedOncePerOutage(t *testing.T) {
	const good, failed = 5, 200
	metricLogWriteErrors.Add(-metricLogWriteErrors.Value()) // isolate this test's counts
	disk := &failAfterWrites{ok: good}
	s := &server{sink: webserver.NewWriterSink(clf.NewWriter(disk))}
	rec := testRecord(1)
	serve := func(n int) {
		for i := 0; i < n; i++ {
			s.Record(rec)
		}
	}

	stderr := captureStderr(t, func() { serve(good + failed) })
	if got := metricLogWriteErrors.Value(); got != failed {
		t.Errorf("serve.log_write_errors = %d, want one per failed request = %d", got, failed)
	}
	if lines := strings.Count(stderr, "\n"); lines != 1 || !strings.Contains(stderr, "serve: log write: no space left on device") {
		t.Errorf("stderr got %d lines for %d failed requests, want the first failure only:\n%s", lines, failed, stderr)
	}
	if got := strings.Count(disk.buf.String(), "\n"); got != good {
		t.Errorf("log holds %d lines, want the %d written before the failure", got, good)
	}

	// SIGHUP rotation: Reset clears the latch. Onto another full disk the
	// failure is reported again, once; onto a good one logging resumes.
	s.sink.Reset(clf.NewWriter(&failAfterWrites{}))
	stderr = captureStderr(t, func() { serve(failed) })
	if lines := strings.Count(stderr, "\n"); lines != 1 {
		t.Errorf("stderr got %d lines after a rotation onto a failing file, want 1:\n%s", lines, stderr)
	}
	var reopened bytes.Buffer
	s.sink.Reset(clf.NewWriter(&reopened))
	stderr = captureStderr(t, func() { serve(good) })
	if stderr != "" {
		t.Errorf("stderr after a rotation onto a good file: %q", stderr)
	}
	if got := strings.Count(reopened.String(), "\n"); got != good {
		t.Errorf("reopened log holds %d lines, want %d", got, good)
	}
	if got := metricLogWriteErrors.Value(); got != 2*failed {
		t.Errorf("serve.log_write_errors = %d, want %d", got, 2*failed)
	}
}

// The profiles are on serve's own mux: a running server answers
// /debug/pprof/ and a named profile under it, outside admission control.
func TestServePprofEndpoint(t *testing.T) {
	dir := t.TempDir()
	soakCorpus(t, dir, 60, 17) // only its topology.json is used
	addr := freeAddr(t)
	child := startServe(t, dir, addr)
	client := &http.Client{Timeout: 10 * time.Second}
	for path, want := range map[string]string{
		"/debug/pprof/":                  "goroutine",
		"/debug/pprof/heap?debug=1":      "heap profile:",
		"/debug/pprof/goroutine?debug=1": "goroutine profile:",
	} {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("%s: %v\noutput:\n%s", path, err, child.output())
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("%s: status %d, body lacks %q:\n%.200s", path, resp.StatusCode, want, body)
		}
	}
	sigtermAndWait(t, child)
}
