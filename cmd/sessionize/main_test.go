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
	"runtime"
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
		coverChild()
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// coverChild sends a child's coverage to CHILD_GOCOVERDIR when it is set, so
// the root package's TestEveryFunctionIsRun counts what the child ran:
// go test gives the test binary a GOCOVERDIR of its own, which a child would
// otherwise inherit.
func coverChild() {
	if dir := os.Getenv("CHILD_GOCOVERDIR"); dir != "" {
		os.Setenv("GOCOVERDIR", dir)
	}
}

// sessionize prepares a child running this package's main on args, on two Ps
// whatever the box has, so the parser and the sessionizer can run side by
// side.
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
// open. The writer holds the pipe open until the line is read; the timeout is
// the failure guard, not the synchronisation.
func TestPipeSessionReachesStdoutAsItsLinesArrive(t *testing.T) {
	cmd, stderr := sessionize("-topology", figure1(t, t.TempDir()), "-log", "-", "-stream")
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

// walkLog is 777 users' log on the Figure 1 site: a quarter of them have an
// earlier burst, closed while feeding — all but the first by the log's clock,
// two hours on, which evicts them, so they count again when they return: 971
// activity periods — and all 777 are open at end of input, so a run's drain
// is four batches.
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

// writeTo runs sessionize into dir/name.sessions and returns the file and
// the child's stderr; the run must succeed.
func writeTo(t *testing.T, dir, name string, stdin io.Reader, args ...string) (sessions []byte, stderr string) {
	t.Helper()
	out := filepath.Join(dir, name+".sessions")
	cmd, errBuf := sessionize(append([]string{"-topology", filepath.Join(dir, "topology.json"), "-sessions", out}, args...)...)
	cmd.Stdin = stdin
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s: %v; stderr:\n%s", name, err, errBuf)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b, errBuf.String()
}

// streamTo is writeTo with -stream; the run must count walkLog's 971 user
// activity periods (Tail's Stats.Users).
func streamTo(t *testing.T, dir, name string, stdin io.Reader, args ...string) (sessions []byte, stderr string) {
	t.Helper()
	sessions, stderr = writeTo(t, dir, name, stdin, append([]string{"-stream"}, args...)...)
	if !strings.Contains(stderr, "users=971") {
		t.Fatalf("%s: stderr has no users=971:\n%s", name, stderr)
	}
	return sessions, stderr
}

// TestPathRedirectAndPipeWriteOneFile: by path, through a redirect (a
// regular file on stdin) and through a pipe a log must give one and the same
// sessions file; and batch mode, which reads through the same chunk reader,
// one and the same batch sessions file by path, redirect and pipe.
func TestPathRedirectAndPipeWriteOneFile(t *testing.T) {
	dir := t.TempDir()
	figure1(t, dir)
	log := walkLog()
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	redirect := func() *os.File {
		f, err := os.Open(logPath)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}

	byPath, _ := streamTo(t, dir, "path", nil, "-log", logPath)
	if bytes.Count(byPath, []byte("\n")) < 2*777 {
		t.Fatalf("by path: %d session lines for 777 users", bytes.Count(byPath, []byte("\n")))
	}
	if got, _ := streamTo(t, dir, "redirect", redirect(), "-log", "-"); !bytes.Equal(got, byPath) {
		t.Errorf("sessionize < log differs from sessionize -log log (%d vs %d bytes)", len(got), len(byPath))
	}
	// A reader that is not a file: exec copies it into a pipe, as cat would.
	if got, _ := streamTo(t, dir, "pipe", strings.NewReader(log), "-log", "-"); !bytes.Equal(got, byPath) {
		t.Errorf("cat log | sessionize differs from sessionize -log log (%d vs %d bytes)", len(got), len(byPath))
	}

	batch, _ := writeTo(t, dir, "batch-path", nil, "-log", logPath)
	if bytes.Count(batch, []byte("\n")) < 2*777 {
		t.Fatalf("batch by path: %d session lines for 777 users", bytes.Count(batch, []byte("\n")))
	}
	if got, _ := writeTo(t, dir, "batch-redirect", redirect(), "-log", "-"); !bytes.Equal(got, batch) {
		t.Errorf("batch: sessionize < log differs from sessionize -log log (%d vs %d bytes)", len(got), len(batch))
	}
	if got, _ := writeTo(t, dir, "batch-pipe", strings.NewReader(log), "-log", "-"); !bytes.Equal(got, batch) {
		t.Errorf("batch: cat log | sessionize differs from sessionize -log log (%d vs %d bytes)", len(got), len(batch))
	}
}

// TestCheckpointedRerunAppendsNothing: a -stream -checkpoint run that
// finished leaves a checkpoint at the end of its log, so running the command
// again resumes there, replays nothing and appends nothing — and the file is
// the one -stream without a checkpoint writes.
func TestCheckpointedRerunAppendsNothing(t *testing.T) {
	dir := t.TempDir()
	figure1(t, dir)
	logPath := filepath.Join(dir, "access.log")
	log := walkLog()
	if err := os.WriteFile(logPath, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	want, _ := streamTo(t, dir, "plain", nil, "-log", logPath)
	args := []string{"-log", logPath, "-checkpoint", filepath.Join(dir, "state.ckpt")}
	first, stderr := streamTo(t, dir, "checkpointed", nil, args...)
	if strings.Contains(stderr, "resuming") || !bytes.Equal(first, want) {
		t.Fatalf("first checkpointed run: %d bytes (want %d), stderr:\n%s", len(first), len(want), stderr)
	}
	again, stderr := streamTo(t, dir, "checkpointed", nil, args...)
	if resume := fmt.Sprintf("sessionize: resuming %s from byte %d (session file at %d)", logPath, len(log), len(want)); !strings.Contains(stderr, resume) {
		t.Errorf("rerun: stderr does not say %q:\n%s", resume, stderr)
	}
	if !bytes.Equal(again, want) {
		t.Errorf("rerun: %d bytes in the session file, want the %d -stream writes", len(again), len(want))
	}
}

// TestSessionsToAPipeEndWithItsReader: -sessions /dev/stdout with stdout a
// pipe whose reader leaves after the first line ends the run, batch and
// -stream alike, once a write fails with EPIPE. Opened read-write, the file
// made the process a reader of its own pipe, so no write ever failed and the
// run blocked for good once the pipe was full.
func TestSessionsToAPipeEndWithItsReader(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("opening /dev/stdout reopens the pipe itself on Linux only")
	}
	dir := t.TempDir()
	topo := figure1(t, dir)
	// 3,000 users' walks: sessions enough to fill a pipe several times over.
	walk := []string{"/P1.html", "/P13.html", "/P34.html", "/P1.html", "/P20.html", "/P23.html"}
	base := time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC)
	var log strings.Builder
	for step, page := range walk {
		for u := 0; u < 3000; u++ {
			log.WriteString(logLine(fmt.Sprintf("10.3.%d.%d", u>>8, u&255), base.Add(time.Duration(step)*time.Minute), page))
		}
	}
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{nil, {"-stream"}} {
		cmd, stderr := sessionize(append([]string{"-topology", topo, "-log", logPath, "-sessions", "/dev/stdout"}, mode...)...)
		pr, pw, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stdout = pw
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		pw.Close()
		if _, err := bufio.NewReader(pr).ReadString('\n'); err != nil {
			t.Fatalf("%v: no first session line: %v; stderr:\n%s", mode, err, stderr)
		}
		pr.Close()
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Fatalf("%v: still running 10 s after the pipe's reader left", mode)
		}
	}
}

// TestHeuristicLine: each heuristic -heuristic names reconstructs the log
// and says which it is, with its thresholds, on stderr, batch and -stream.
func TestHeuristicLine(t *testing.T) {
	dir := t.TempDir()
	figure1(t, dir)
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, []byte(walkLog()), 0o644); err != nil {
		t.Fatal(err)
	}
	for heur, line := range map[string]string{
		"heur1": "heuristic: heur1 — time-oriented (total session duration ≤ 30m0s)\n",
		"heur2": "heuristic: heur2 — time-oriented (page-stay time ≤ 10m0s)\n",
		"heur3": "heuristic: heur3 — navigation-oriented with backward path completion\n",
		"heur4": "heuristic: heur4 — Smart-SRA (δ=30m0s, ρ=10m0s)\n",
	} {
		for _, mode := range []string{"batch", "stream"} {
			args := []string{"-heuristic", heur, "-log", logPath}
			if mode == "stream" {
				args = append(args, "-stream")
			}
			sessions, stderr := writeTo(t, dir, heur+"-"+mode, nil, args...)
			if !strings.Contains(stderr, line) || len(sessions) == 0 {
				t.Errorf("%s, %s: %d bytes of sessions, stderr:\n%s\nwant the line %q", heur, mode, len(sessions), stderr, line)
			}
		}
	}
}

// TestLogZonesAndMalformedStatus: a log whose lines carry different UTC
// offsets (a server that moved zone, a daylight-saving change) orders one
// user's requests by instant, so three pages a minute apart written at
// +0000, +0530 and -0700 are one session; a line whose status is not a
// number is malformed, batch and -stream alike. Three offsets make at least
// two of them not the box's own, whatever its zone.
func TestLogZonesAndMalformedStatus(t *testing.T) {
	dir := t.TempDir()
	figure1(t, dir)
	_, ids := webgraph.PaperFigure1()
	log := `10.9.0.1 - - [02/Jan/2006:08:00:00 +0000] "GET /P1.html HTTP/1.1" 200 100
10.9.0.1 - - [02/Jan/2006:13:31:00 +0530] "GET /P13.html HTTP/1.1" 200 100
10.9.0.1 - - [02/Jan/2006:01:02:00 -0700] "GET /P34.html HTTP/1.1" 200 100
10.9.0.1 - - [02/Jan/2006:08:03:00 +0000] "GET /P1.html HTTP/1.1" 2x0 100
`
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("10.9.0.1:[%d %d %d]\n", ids["P1"], ids["P13"], ids["P34"])
	for _, mode := range [][]string{nil, {"-stream"}} {
		sessions, stderr := writeTo(t, dir, fmt.Sprint(len(mode)), nil, append([]string{"-log", logPath}, mode...)...)
		if string(sessions) != want || !strings.Contains(stderr, "records=3 malformed=1 ") {
			t.Errorf("%v: sessions %q, want %q; stderr:\n%s", mode, sessions, want, stderr)
		}
	}
}

// TestLogTimeOutsideUnixNano: a line whose time no UnixNano can hold (after
// 2262) is malformed, batch and -stream alike, so the user's two requests
// around it are one session in both modes; read as a time, it would order
// after them in batch mode and wrap to somewhere else in -stream.
func TestLogTimeOutsideUnixNano(t *testing.T) {
	dir := t.TempDir()
	figure1(t, dir)
	_, ids := webgraph.PaperFigure1()
	log := `10.9.0.2 - - [02/Jan/2006:02:20:04 +0000] "GET /P1.html HTTP/1.1" 200 100
10.9.0.2 - - [02/Jan/2300:02:22:08 +0000] "GET /P34.html HTTP/1.1" 200 100
10.9.0.2 - - [02/Jan/2006:02:21:04 +0000] "GET /P13.html HTTP/1.1" 200 100
`
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("10.9.0.2:[%d %d]\n", ids["P1"], ids["P13"])
	for _, mode := range [][]string{nil, {"-stream"}} {
		sessions, stderr := writeTo(t, dir, fmt.Sprint(len(mode)), nil, append([]string{"-log", logPath, "-heuristic", "heur2"}, mode...)...)
		if string(sessions) != want || !strings.Contains(stderr, "records=2 malformed=1 ") {
			t.Errorf("%v: sessions %q, want %q; stderr:\n%s", mode, sessions, want, stderr)
		}
	}
}

// TestSessionWriteErrorExitsThroughMain: a session file that refuses writes
// ends the run with exit status 1 and the write error, through main, so the
// CPU profile is still written.
func TestSessionWriteErrorExitsThroughMain(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, []byte(walkLog()), 0o644); err != nil {
		t.Fatal(err)
	}
	cpu := filepath.Join(dir, "cpu.prof")
	cmd, stderr := sessionize("-topology", figure1(t, dir), "-log", logPath, "-stream", "-sessions", "/dev/full", "-cpuprofile", cpu)
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(stderr.String(), "no space left on device") {
		t.Fatalf("err = %v, want exit status 1 and the write error; stderr:\n%s", err, stderr)
	}
	if st, err := os.Stat(cpu); err != nil || st.Size() == 0 {
		t.Errorf("%s: want a non-empty profile (err %v)", cpu, err)
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
	for _, bad := range [][]string{{"-workers", "x"}, {"-shards", "2"}, {"-stream-depth", "8"}, {"-expire-every", "30s"}} {
		cmd, stderr := sessionize(append([]string{"-topology", topo, "-log", logPath, "-stream"}, bad...)...)
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2; stderr:\n%s", bad, err, stderr)
		}
	}
}

// TestReadErrorKeepsSessionsAlreadySunk: sessions finalized before a read
// error are output — in the -sessions file or on stdout — and the run still
// exits 1 with the read error as its message. The log's second and third
// lines each close the burst before them; the gzip member after it is cut
// short inside its first block, and the lines it gives before the cut, an
// hour on, move the log's clock 2ρ past the third line's burst.
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
	for u := 0; u < 500; u++ { // one line a user: nothing closes but 10.0.0.1
		io.WriteString(gz, logLine(fmt.Sprintf("10.9.%d.%d", u>>8, u&255), at.Add(3*time.Hour), "/P1.html"))
	}
	if err := gz.Close(); err != nil || packed.Len() < 400 {
		t.Fatalf("gzip member of %d bytes, err %v", packed.Len(), err)
	}
	tiny := filepath.Join(dir, "tiny.gz")
	if err := os.WriteFile(tiny, packed.Bytes()[:200], 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "10.0.0.1:[0]\n10.0.0.1:[1]\n10.0.0.1:[4]\n"

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
// the flag, and stdout stays empty. Read from stdin (-log -), the log gives
// what it gives from its file.
func TestReferrerHonoursSessions(t *testing.T) {
	dir := t.TempDir()
	topo := figure1(t, dir)
	at := time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC)
	combined := func(host string, at time.Time, uri, referer string) string {
		return strings.TrimSuffix(logLine(host, at, uri), "\n") + fmt.Sprintf(" %q \"test\"\n", referer)
	}
	logPath := filepath.Join(dir, "combined.log")
	log := combined("10.0.0.1", at, "/P1.html", "-") +
		combined("10.0.0.1", at.Add(time.Minute), "/P13.html", "/P1.html") +
		combined("10.0.0.2", at.Add(2*time.Minute), "/P1.html", "-")
	if err := os.WriteFile(logPath, []byte(log), 0o644); err != nil {
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
	cmd, stderr := sessionize("-topology", topo, "-log", "-", "-heuristic", "referrer")
	cmd.Stdin = strings.NewReader(log)
	if got, err := cmd.Output(); err != nil || string(got) != want {
		t.Errorf("from stdin: %q (err %v; stderr:\n%s), want %q", got, err, stderr, want)
	}
}

// -cpuprofile and -memprofile write their profiles and leave the sessions
// and the stats line alone.
func TestProfilesLeaveOutputAlone(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "access.log")
	at := time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC)
	var log string
	for i := 0; i < 50; i++ {
		log += logLine(fmt.Sprintf("10.0.0.%d", i%7), at.Add(time.Duration(i)*time.Minute), "/P1.html")
	}
	if err := os.WriteFile(logPath, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(extra ...string) (string, string) {
		t.Helper()
		cmd, stderr := sessionize(append([]string{"-topology", figure1(t, dir), "-log", logPath}, extra...)...)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("sessionize %v: %v; stderr:\n%s", extra, err, stderr)
		}
		return string(out), stderr.String()
	}
	wantOut, wantErr := run()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	gotOut, gotErr := run("-cpuprofile", cpu, "-memprofile", mem)
	if gotOut != wantOut || gotErr != wantErr {
		t.Errorf("output with profiles:\n%s%s\nwant:\n%s%s", gotOut, gotErr, wantOut, wantErr)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (err %v)", f, err)
		}
	}
}

// TestCheckpointEveryResumesAKilledRun: with -checkpoint-every 0 a -stream
// run saves at every chunk boundary. Killed with SIGKILL once its first
// checkpoint is on disk and run again, it resumes mid-log and finishes the
// session file an uninterrupted run writes, byte for byte.
func TestCheckpointEveryResumesAKilledRun(t *testing.T) {
	dir := t.TempDir()
	figure1(t, dir)
	walk := []string{"/P1.html", "/P13.html", "/P34.html", "/P1.html", "/P20.html", "/P23.html"}
	base := time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC)
	var log strings.Builder
	for i := 0; log.Len() < 4<<20; i++ { // four 1 MiB chunks
		u := i % 1000
		log.WriteString(logLine(fmt.Sprintf("10.3.%d.%d", u>>8, u&255), base.Add(time.Duration(i)*100*time.Millisecond), walk[(i/1000+u)%len(walk)]))
	}
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	want, _ := writeTo(t, dir, "plain", nil, "-stream", "-log", logPath)

	ckpt := filepath.Join(dir, "state.ckpt")
	args := []string{"-stream", "-log", logPath, "-checkpoint", ckpt, "-checkpoint-every", "0"}
	cmd, stderr := sessionize(append([]string{"-topology", filepath.Join(dir, "topology.json"),
		"-sessions", filepath.Join(dir, "killed.sessions")}, args...)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no checkpoint after 30 s; stderr:\n%s", stderr)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatalf("the run finished before it was killed; stderr:\n%s", stderr)
	}
	got, errs := writeTo(t, dir, "killed", nil, args...)
	if !strings.Contains(errs, "sessionize: resuming "+logPath+" from byte ") ||
		strings.Contains(errs, fmt.Sprintf("from byte %d ", log.Len())) {
		t.Errorf("the rerun does not resume mid-log; stderr:\n%s", errs)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("killed and resumed: %d bytes in the session file, want the %d an uninterrupted run writes", len(got), len(want))
	}
}
