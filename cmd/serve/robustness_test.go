package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/loadgen"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// soakCorpus writes a fixed-seed topology into dir and returns it with a
// simulated request schedule — the shared setup of every subprocess soak.
func soakCorpus(t *testing.T, dir string, agents int, seed int64) (*webgraph.Graph, []simulator.Request) {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 120, AvgOutDegree: 8, StartPageFraction: 0.08,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	tf, err := os.Create(filepath.Join(dir, "topology.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Encode(tf); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	params := simulator.PaperParams()
	params.Agents = agents
	params.Seed = seed
	res, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	reqs := res.Schedule(g)
	if len(reqs) < 300 {
		t.Fatalf("schedule too small to soak: %d requests", len(reqs))
	}
	return g, reqs
}

// freeAddr pre-allocates a loopback port so a restarted child can bind the
// same address the load generator is hammering.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// sigtermAndWait shuts the child down gracefully, failing the test on a
// non-zero exit or a hang.
func sigtermAndWait(t *testing.T, child *soakProc) {
	t.Helper()
	if err := child.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- child.cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("graceful shutdown failed: %v\noutput:\n%s", err, child.output())
		}
	case <-time.After(30 * time.Second):
		child.cmd.Process.Kill()
		t.Fatalf("child hung on SIGTERM; output:\n%s", child.output())
	}
}

// TestLiveOfflineEquivalenceWithExpiry is the expiry-determinism pin: a serve
// child runs with periodic expiry ON (the configuration the plain crash soak
// had to exclude), survives a mid-load SIGKILL plus recovery, and after a
// graceful shutdown the offline replay — the access log plus the journaled
// expiry cuts — must reproduce the live session file byte for byte. The cut
// journal is what makes wall-clock expiry replayable: each live Expire is
// recorded as an exact record boundary, and IngestFilesCuts re-applies it
// there.
func TestLiveOfflineEquivalenceWithExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second subprocess soak")
	}
	const gap = 500 * time.Millisecond
	dir := t.TempDir()
	g, reqs := soakCorpus(t, dir, 150, 7)
	addr := freeAddr(t)
	env := []string{
		"SERVE_SOAK_GAP=" + gap.String(),
		"SERVE_SOAK_EXPIRE=120ms",
	}
	child := startServe(t, dir, addr, env...)

	// Pace the schedule over ~2.5s so expiry ticks land between requests and
	// users who finish early age past the gap while others are still active.
	span := reqs[len(reqs)-1].At.Sub(reqs[0].At)
	speedup := span.Seconds() / 2.5
	repc := make(chan loadgen.Report, 1)
	go func() {
		rep, _ := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  "http://" + addr,
			Requests: reqs,
			Speedup:  speedup,
			Workers:  8,
		})
		repc <- rep
	}()

	// SIGKILL mid-load: recovery must re-apply the journaled cuts the
	// checkpoint hasn't absorbed, then keep journaling new ones.
	time.Sleep(900 * time.Millisecond)
	if err := child.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.cmd.Wait()
	child = startServe(t, dir, addr, env...)
	if !strings.Contains(child.output(), "recovered from") {
		t.Fatalf("restarted child did not run checkpoint recovery; output:\n%s", child.output())
	}

	var rep loadgen.Report
	select {
	case rep = <-repc:
	case <-time.After(120 * time.Second):
		t.Fatal("load generator never finished")
	}
	if rep.Accepted == 0 {
		t.Fatal("no request was ever accepted")
	}
	// Let at least one more expiry sweep run against a quiet tail so the
	// journal also carries a trailing cut (every user idle longer than the
	// gap), then shut down.
	time.Sleep(3 * gap)
	sigtermAndWait(t, child)

	// The pin: replaying the log with the journaled cuts reproduces the live
	// session file exactly.
	sessions, cuts := matchesCutReplay(t, g, dir, gap, child)
	if cuts == 0 {
		t.Fatalf("expiry never journaled a cut — the test exercised nothing; output:\n%s", child.output())
	}
	t.Logf("byte-identical with expiry on: %d sessions, %d cuts replayed (replay: %s)",
		sessions, cuts, rep)
}

// matchesCutReplay replays dir's access.log with the cuts journaled in
// sessions.txt.cuts, as sessionize -stream -cuts does, and fails unless the
// replay is the live sessions.txt byte for byte. It returns the sessions
// and cuts replayed.
func matchesCutReplay(t *testing.T, g *webgraph.Graph, dir string, gap time.Duration, child *soakProc) (sessions, ncuts int) {
	t.Helper()
	cf, err := os.Open(filepath.Join(dir, "sessions.txt.cuts"))
	if err != nil {
		t.Fatalf("no cut journal: %v\noutput:\n%s", err, child.output())
	}
	cuts, err := core.ReadCuts(cf)
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewTail(core.Config{Graph: g}, gap)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	replay := encodeInto(t, &want, &sessions)
	malformed, err := st.IngestFilesCuts([]string{filepath.Join(dir, "access.log")}, clf.FilePos{}, 0, cuts, replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Drain(replay)
	got, err := os.ReadFile(filepath.Join(dir, "sessions.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("live sessions diverge from the cut-replay of the log:\nlive %d bytes, replay %d bytes (%d cuts, %d malformed lines)\nchild output:\n%s",
			len(got), want.Len(), len(cuts), malformed, child.output())
	}
	return sessions, len(cuts)
}

// TestServeFlagsOnTheCommandLine runs serve as a command, with -combined,
// -read-timeout 1s and -idle-timeout 1s: a request body trickled past a
// second is cut off, a keep-alive connection idle for a second is closed, a
// logged line carries the Referer its request sent, and the live session
// file is the cut replay of the combined log.
func TestServeFlagsOnTheCommandLine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second subprocess run")
	}
	const gap = 500 * time.Millisecond
	dir := t.TempDir()
	g, reqs := soakCorpus(t, dir, 150, 9)
	addr := freeAddr(t)
	child := startServeArgs(t, "-topology", filepath.Join(dir, "topology.json"), "-addr", addr,
		"-log", filepath.Join(dir, "access.log"), "-sessions", filepath.Join(dir, "sessions.txt"),
		"-session-gap", gap.String(), "-expire-every", "200ms", "-trust-forwarded",
		"-combined", "-read-timeout", "1s", "-idle-timeout", "1s")
	defer child.cmd.Process.Kill()

	// closedAfter sends head on a new connection, then a body byte every
	// 100 ms until the server closes it, and returns how long that took.
	closedAfter := func(head string, trickle bool) time.Duration {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		if _, err := conn.Write([]byte(head)); err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			io.Copy(io.Discard, conn)
		}()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		timeout := time.After(10 * time.Second)
		for {
			select {
			case <-closed:
				return time.Since(start)
			case <-timeout:
				t.Fatalf("the server kept the connection for 10 s after %q", head)
			case <-tick.C:
				if trickle {
					conn.Write([]byte("x"))
				}
			}
		}
	}
	page := g.Label(g.StartPages()[0])
	if d := closedAfter("POST "+page+" HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n", true); d < 900*time.Millisecond || d > 3*time.Second {
		t.Errorf("a body trickled for %v before the server cut it off, want about the 1 s -read-timeout", d)
	}
	// A whole request is answered at once, so the connection is idle from
	// about the start.
	const referer = "http://referer.example/from"
	if d := closedAfter("GET "+page+" HTTP/1.1\r\nHost: x\r\nReferer: "+referer+"\r\n\r\n", false); d < 900*time.Millisecond || d > 3*time.Second {
		t.Errorf("an idle keep-alive connection was closed after %v, want about the 1 s -idle-timeout", d)
	}

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL: "http://" + addr, Requests: reqs, Workers: 4,
	})
	if err != nil || rep.Accepted == 0 {
		t.Fatalf("load: %v (%s)", err, rep)
	}
	time.Sleep(3 * gap) // an expiry sweep over a quiet tail journals a cut
	sigtermAndWait(t, child)
	if !strings.Contains(child.output(), "format: combined") {
		t.Errorf("serve does not log the combined format; output:\n%s", child.output())
	}

	log, err := os.ReadFile(filepath.Join(dir, "access.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(log, []byte(`"GET `+page+` HTTP/1.1" 200 `)) || !bytes.Contains(log, []byte(`"`+referer+`"`)) {
		t.Errorf("no logged line carries the Referer %q:\n%.2000s", referer, log)
	}
	sessions, cuts := matchesCutReplay(t, g, dir, gap, child)
	if sessions == 0 {
		t.Fatalf("no sessions; output:\n%s", child.output())
	}
	t.Logf("%d sessions, %d cuts replayed (load: %s)", sessions, cuts, rep)
}
