package main

import (
	"bytes"
	"context"
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
		Model: webgraph.ModelUniform, EnsureReachable: true,
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
			Timeout:  2 * time.Second,
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

	cf, err := os.Open(filepath.Join(dir, "sessions.txt.cuts"))
	if err != nil {
		t.Fatalf("no cut journal: %v\noutput:\n%s", err, child.output())
	}
	cuts, err := core.ReadCuts(cf)
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) == 0 {
		t.Fatalf("expiry never journaled a cut — the test exercised nothing; output:\n%s", child.output())
	}

	// The pin: replaying the log with the journaled cuts reproduces the live
	// session file exactly.
	st, err := core.NewTail(core.Config{Graph: g}, gap)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	sessions := 0
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
	t.Logf("byte-identical with expiry on: %d sessions, %d bytes, %d cuts replayed (replay: %s)",
		sessions, len(got), len(cuts), rep)
}
