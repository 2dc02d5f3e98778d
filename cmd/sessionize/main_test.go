package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartsra/internal/webgraph"
)

// TestMain lets the test binary stand in for the sessionize binary: with
// SESSIONIZE_CHILD=1 it runs main on its arguments. A child is a test binary
// too, so every batch a sink was lent is overwritten after the sink returns.
func TestMain(m *testing.M) {
	if os.Getenv("SESSIONIZE_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sessionize prepares a child running this package's main on args, on two Ps
// whatever the box has, so a drain of more than one batch runs on lanes.
func sessionize(args ...string) (*exec.Cmd, *bytes.Buffer) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SESSIONIZE_CHILD=1", "GOMAXPROCS=2")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	return cmd, &stderr
}

// figure1 writes the paper's Figure 1 topology where sessionize can read it.
func figure1(t *testing.T, dir string) string {
	t.Helper()
	g, _ := webgraph.PaperFigure1()
	path := filepath.Join(dir, "topology.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func logLine(host string, at time.Time, uri string) string {
	return fmt.Sprintf("%s - - [%s] \"GET %s HTTP/1.1\" 200 100\n", host, at.Format("02/Jan/2006:15:04:05 -0700"), uri)
}

// TestPipeSessionReachesStdoutAsItsLinesArrive: on stdin every sunk batch is
// flushed, so the session a line closes is on stdout while the pipe is still
// open — with the expire sweep, the only other flush before EOF, switched
// off. The writer holds the pipe open until the line is read; the timeout is
// the failure guard, not the synchronisation.
func TestPipeSessionReachesStdoutAsItsLinesArrive(t *testing.T) {
	cmd, stderr := sessionize("-topology", figure1(t, t.TempDir()), "-log", "-", "-stream", "-expire-every", "-1s")
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdin = pr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pr.Close()
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc := bufio.NewScanner(stdout); sc.Scan(); {
			lines <- sc.Text()
		}
	}()
	next := func(what string) string {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("%s: stdout closed; stderr:\n%s", what, stderr)
			}
			return line
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatalf("%s: nothing on stdout after 30 s; stderr:\n%s", what, stderr)
		}
		panic("unreachable")
	}

	at := time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC)
	// An hour apart: the second line closes the burst the first one opened.
	if _, err := io.WriteString(pw, logLine("10.0.0.1", at, "/P1.html")+logLine("10.0.0.1", at.Add(time.Hour), "/P13.html")); err != nil {
		t.Fatal(err)
	}
	if got := next("with stdin still open"); got != "10.0.0.1:[0]" {
		t.Errorf("first session %q, want 10.0.0.1:[0]", got)
	}
	pw.Close()
	if got := next("after EOF"); got != "10.0.0.1:[1]" {
		t.Errorf("drained session %q, want 10.0.0.1:[1]", got)
	}
	if extra, ok := <-lines; ok {
		t.Errorf("unexpected third line %q", extra)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("sessionize: %v; stderr:\n%s", err, stderr)
	}
}

// TestExpiryFiresOnAnIdlePipe: with -expire-every on, a user quiet for longer
// than the session gap has their session written while stdin is still open
// and nothing more arrives — the tick does not wait for input. The line is
// historical, so the first tick expires it; the timeout is the failure guard,
// not the synchronisation.
func TestExpiryFiresOnAnIdlePipe(t *testing.T) {
	cmd, stderr := sessionize("-topology", figure1(t, t.TempDir()), "-log", "-", "-stream",
		"-session-gap", "1s", "-expire-every", "50ms")
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdin = pr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pr.Close()
	lines := make(chan string, 1)
	go func() {
		defer close(lines)
		for sc := bufio.NewScanner(stdout); sc.Scan(); {
			lines <- sc.Text()
		}
	}()
	fail := func(format string, args ...any) {
		t.Helper()
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf(format+"; stderr:\n%s", append(args, stderr)...)
	}
	if _, err := io.WriteString(pw, logLine("10.0.0.1", time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC), "/P1.html")); err != nil {
		fail("write: %v", err)
	}
	select {
	case line, ok := <-lines:
		if !ok || line != "10.0.0.1:[0]" {
			fail("stdout gave %q (open %v), want 10.0.0.1:[0]", line, ok)
		}
	case <-time.After(30 * time.Second):
		fail("no session on stdout 30 s after the line, stdin still open")
	}
	pw.Close()
	if extra, ok := <-lines; ok {
		t.Errorf("unexpected line %q after EOF", extra)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("sessionize: %v; stderr:\n%s", err, stderr)
	}
}

// walkLog is 777 users' log on the Figure 1 site: a quarter of them have an
// earlier burst, closed while feeding, and all 777 are open at end of input,
// so a run's drain is four batches, reconstructed on lanes.
func walkLog() string {
	walk := []string{"/P1.html", "/P13.html", "/P34.html", "/P1.html", "/P20.html", "/P23.html"}
	base := time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC)
	var log strings.Builder
	for step := range walk {
		for u := 0; u < 777; u += 4 {
			log.WriteString(logLine(fmt.Sprintf("10.2.%d.%d", u>>8, u&255), base.Add(time.Duration(step)*time.Minute), walk[step]))
		}
	}
	for step := range walk {
		for u := 0; u < 777; u++ {
			log.WriteString(logLine(fmt.Sprintf("10.2.%d.%d", u>>8, u&255), base.Add(2*time.Hour+time.Duration(step)*time.Minute), walk[(step+u)%len(walk)]))
		}
	}
	return log.String()
}

// streamTo runs sessionize -stream into dir/name.sessions and returns the
// file and the child's stderr; the run must succeed and count 777 users.
func streamTo(t *testing.T, dir, name string, stdin io.Reader, args ...string) (sessions []byte, stderr string) {
	t.Helper()
	out := filepath.Join(dir, name+".sessions")
	cmd, errBuf := sessionize(append([]string{"-topology", filepath.Join(dir, "topology.json"), "-stream", "-sessions", out}, args...)...)
	cmd.Stdin = stdin
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s: %v; stderr:\n%s", name, err, errBuf)
	}
	if !strings.Contains(errBuf.String(), "users=777") {
		t.Fatalf("%s: stderr has no users=777:\n%s", name, errBuf)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b, errBuf.String()
}

// TestPathRedirectAndPipeWriteOneFile: by path, through a redirect (a
// regular file on stdin), through a pipe, and through a pipe with the expire
// tick armed (an hour, so it never fires) a log must give one and the same
// sessions file.
func TestPathRedirectAndPipeWriteOneFile(t *testing.T) {
	dir := t.TempDir()
	figure1(t, dir)
	log := walkLog()
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}

	byPath, _ := streamTo(t, dir, "path", nil, "-log", logPath)
	if bytes.Count(byPath, []byte("\n")) < 2*777 {
		t.Fatalf("by path: %d session lines for 777 users", bytes.Count(byPath, []byte("\n")))
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got, _ := streamTo(t, dir, "redirect", f, "-log", "-", "-expire-every", "-1s"); !bytes.Equal(got, byPath) {
		t.Errorf("sessionize < log differs from sessionize -log log (%d vs %d bytes)", len(got), len(byPath))
	}
	// A reader that is not a file: exec copies it into a pipe, as cat would.
	for _, expire := range []string{"-1s", "1h"} {
		if got, _ := streamTo(t, dir, "pipe"+expire, strings.NewReader(log), "-log", "-", "-expire-every", expire); !bytes.Equal(got, byPath) {
			t.Errorf("cat log | sessionize -expire-every %s differs from sessionize -log log (%d vs %d bytes)", expire, len(got), len(byPath))
		}
	}
}

// TestWorkersFlagIsParsedAndIgnored: -workers survives for the benchmark's
// command line and changes nothing — auto or any integer writes the file no
// flag writes, a count that once meant a pool earns one line on stderr —
// while a value that is neither, and the flags that went, are usage errors.
func TestWorkersFlagIsParsedAndIgnored(t *testing.T) {
	dir := t.TempDir()
	topo := figure1(t, dir)
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, []byte(walkLog()), 0o644); err != nil {
		t.Fatal(err)
	}
	const notice = "-workers 4 has no effect"
	want, stderr := streamTo(t, dir, "noflag", nil, "-log", logPath)
	if strings.Contains(stderr, "-workers") {
		t.Errorf("no flag: stderr mentions -workers:\n%s", stderr)
	}
	for w, notices := range map[string]int{"auto": 0, "0": 0, "4": 1} {
		got, stderr := streamTo(t, dir, "workers"+w, nil, "-log", logPath, "-workers", w)
		if !bytes.Equal(got, want) {
			t.Errorf("-workers %s: sessions differ from a run without the flag (%d vs %d bytes)", w, len(got), len(want))
		}
		if strings.Count(stderr, "-workers") != notices || strings.Count(stderr, notice) != notices {
			t.Errorf("-workers %s: want %d notice lines on stderr:\n%s", w, notices, stderr)
		}
	}
	for _, bad := range [][]string{{"-workers", "x"}, {"-shards", "2"}, {"-stream-depth", "8"}} {
		cmd, stderr := sessionize(append([]string{"-topology", topo, "-log", logPath, "-stream"}, bad...)...)
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2; stderr:\n%s", bad, err, stderr)
		}
	}
}

// TestStatsOnlyRejectsSessions: -stats-only writes no sessions, so naming a
// -sessions file as well is a usage error in every mode, caught before the
// file is opened — the file a user already had is left as it was.
func TestStatsOnlyRejectsSessions(t *testing.T) {
	dir := t.TempDir()
	topo := figure1(t, dir)
	at := time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC)
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, []byte(logLine("10.0.0.1", at, "/P1.html")+
		logLine("10.0.0.1", at.Add(time.Hour), "/P13.html")), 0o644); err != nil {
		t.Fatal(err)
	}
	const kept = "sessions from an earlier run\n"
	for name, mode := range map[string][]string{
		"batch":             nil,
		"stream":            {"-stream"},
		"stream checkpoint": {"-stream", "-checkpoint", filepath.Join(dir, "state.ckpt")},
	} {
		out := filepath.Join(dir, "kept.sessions")
		if err := os.WriteFile(out, []byte(kept), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd, stderr := sessionize(append([]string{"-topology", topo, "-log", logPath, "-stats-only", "-sessions", out}, mode...)...)
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 ||
			!strings.Contains(stderr.String(), "-stats-only") || !strings.Contains(stderr.String(), "-sessions") {
			t.Errorf("%s: err = %v, want exit status 2 naming both flags; stderr:\n%s", name, err, stderr)
		}
		if got, err := os.ReadFile(out); err != nil || string(got) != kept {
			t.Errorf("%s: %s holds %q (err %v), want it unchanged", name, out, got, err)
		}
	}
}

// TestReadErrorKeepsSessionsAlreadySunk: sessions finalized before a read
// error are output — in the -sessions file or on stdout — and the run still
// exits 1 with the read error as its message. The log's second and third
// lines each close the burst before them; the gzip member after it is cut
// short inside its first block.
func TestReadErrorKeepsSessionsAlreadySunk(t *testing.T) {
	dir := t.TempDir()
	topo := figure1(t, dir)
	at := time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC)
	small := filepath.Join(dir, "small.log")
	if err := os.WriteFile(small, []byte(logLine("10.0.0.1", at, "/P1.html")+
		logLine("10.0.0.1", at.Add(time.Hour), "/P13.html")+logLine("10.0.0.1", at.Add(2*time.Hour), "/P34.html")), 0o644); err != nil {
		t.Fatal(err)
	}
	var packed bytes.Buffer
	gz := gzip.NewWriter(&packed)
	for u := 0; u < 500; u++ { // one line a user: nothing closes
		io.WriteString(gz, logLine(fmt.Sprintf("10.9.%d.%d", u>>8, u&255), at.Add(3*time.Hour), "/P1.html"))
	}
	if err := gz.Close(); err != nil || packed.Len() < 400 {
		t.Fatalf("gzip member of %d bytes, err %v", packed.Len(), err)
	}
	tiny := filepath.Join(dir, "tiny.gz")
	if err := os.WriteFile(tiny, packed.Bytes()[:200], 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "10.0.0.1:[0]\n10.0.0.1:[1]\n"

	for _, toFile := range []bool{true, false} {
		args := []string{"-topology", topo, "-log", small + "," + tiny, "-stream"}
		out := filepath.Join(dir, "out.sessions")
		if toFile {
			args = append(args, "-sessions", out)
		}
		cmd, stderr := sessionize(args...)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(stderr.String(), "unexpected EOF") {
			t.Fatalf("to file %v: err = %v, want exit status 1 and the read error; stderr:\n%s", toFile, err, stderr)
		}
		got := stdout.String()
		if toFile {
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if stdout.Len() != 0 {
				t.Errorf("to file: stdout has %q", stdout.String())
			}
			got = string(b)
		}
		if got != want {
			t.Errorf("to file %v: sessions %q, want %q", toFile, got, want)
		}
	}
}

// TestReferrerHonoursSessions: -heuristic referrer writes where -sessions
// says, like every other heuristic: the file holds what stdout held without
// the flag, and stdout stays empty.
func TestReferrerHonoursSessions(t *testing.T) {
	dir := t.TempDir()
	topo := figure1(t, dir)
	at := time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC)
	combined := func(host string, at time.Time, uri, referer string) string {
		return strings.TrimSuffix(logLine(host, at, uri), "\n") + fmt.Sprintf(" %q \"test\"\n", referer)
	}
	logPath := filepath.Join(dir, "combined.log")
	if err := os.WriteFile(logPath, []byte(combined("10.0.0.1", at, "/P1.html", "-")+
		combined("10.0.0.1", at.Add(time.Minute), "/P13.html", "/P1.html")+
		combined("10.0.0.2", at.Add(2*time.Minute), "/P1.html", "-")), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) string {
		t.Helper()
		cmd, stderr := sessionize(append([]string{"-topology", topo, "-log", logPath, "-heuristic", "referrer"}, args...)...)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v; stderr:\n%s", args, err, stderr)
		}
		return stdout.String()
	}
	want := run()
	if !strings.Contains(want, "10.0.0.1:[0 1]") {
		t.Fatalf("stdout without -sessions:\n%s", want)
	}
	out := filepath.Join(dir, "referrer.sessions")
	if stdout := run("-sessions", out); stdout != "" {
		t.Errorf("stdout with -sessions: %q", stdout)
	}
	if got, err := os.ReadFile(out); err != nil || string(got) != want {
		t.Errorf("%s holds %q (err %v), want %q", out, got, err, want)
	}
}
