package main

import (
	"bufio"
	"bytes"
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

// TestPathRedirectAndPipeWriteOneFile: by path (mmap, a plain Tail), through
// a redirect (a regular file on stdin) and through a pipe into two shards (the
// ShardedTail's drain) a log must give one and the same sessions file. 777
// users are open at end of input, so every run's drain is four batches,
// reconstructed on lanes.
func TestPathRedirectAndPipeWriteOneFile(t *testing.T) {
	dir := t.TempDir()
	topo := figure1(t, dir)
	walk := []string{"/P1.html", "/P13.html", "/P34.html", "/P1.html", "/P20.html", "/P23.html"}
	base := time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC)
	var log strings.Builder
	for step := range walk {
		for u := 0; u < 777; u++ {
			if u%4 == 0 { // an earlier burst, closed while feeding
				log.WriteString(logLine(fmt.Sprintf("10.2.%d.%d", u>>8, u&255), base.Add(time.Duration(step)*time.Minute), walk[step]))
			}
		}
	}
	for step := range walk {
		for u := 0; u < 777; u++ {
			log.WriteString(logLine(fmt.Sprintf("10.2.%d.%d", u>>8, u&255), base.Add(2*time.Hour+time.Duration(step)*time.Minute), walk[(step+u)%len(walk)]))
		}
	}
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(name string, stdin io.Reader, args ...string) []byte {
		t.Helper()
		out := filepath.Join(dir, name+".sessions")
		cmd, stderr := sessionize(append([]string{"-topology", topo, "-stream", "-sessions", out}, args...)...)
		cmd.Stdin = stdin
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v; stderr:\n%s", name, err, stderr)
		}
		if !strings.Contains(stderr.String(), "users=777") {
			t.Fatalf("%s: stderr has no users=777:\n%s", name, stderr)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	byPath := run("path", nil, "-log", logPath)
	if bytes.Count(byPath, []byte("\n")) < 2*777 {
		t.Fatalf("by path: %d session lines for 777 users", bytes.Count(byPath, []byte("\n")))
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := run("redirect", f, "-log", "-", "-expire-every", "-1s"); !bytes.Equal(got, byPath) {
		t.Errorf("sessionize < log differs from sessionize -log log (%d vs %d bytes)", len(got), len(byPath))
	}
	// A reader that is not a file: exec copies it into a pipe, as cat would.
	if got := run("pipe", strings.NewReader(log.String()), "-log", "-", "-shards", "2", "-expire-every", "-1s"); !bytes.Equal(got, byPath) {
		t.Errorf("cat log | sessionize differs from sessionize -log log (%d vs %d bytes)", len(got), len(byPath))
	}
}
