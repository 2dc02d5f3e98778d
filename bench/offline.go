package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/session"
)

// runOffline drives offline_clf and offline_noisy_gz: generate the corpus,
// compute the reference sessions the naive way, then either time repeated
// `sessionize -stream` processes (end to end) or trace the layers in
// process.
func runOffline(ctx context.Context, e *env, cfg runConfig) (*runResult, error) {
	res, err := newResult(ctx, cfg)
	if err != nil {
		return nil, err
	}
	sc := cfg.scale()

	var corp *corpus
	if err := res.timeSetup(sc.setupReps, func(i int) error {
		if err := e.buildTools(ctx); err != nil {
			return err
		}
		if corp != nil {
			os.RemoveAll(filepath.Dir(corp.TopologyPath))
		}
		dir := filepath.Join(e.work, fmt.Sprintf("corpus%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		var err error
		corp, err = generate(dir, genParams{Seed: cfg.Seed, Agents: sc.offlineAgents, Noisy: cfg.Workload == wOfflineNoisy})
		return err
	}); err != nil {
		return nil, err
	}
	res.Info["input"] = corp.Counts
	res.Info["input_bytes"] = corp.Bytes

	// The reference runs beside the warm-up, which is not timed.
	type refOut struct {
		lines [][]byte
		err   error
	}
	refc := make(chan refOut, 1)
	go func() {
		lines, err := referenceSessions(corp)
		refc <- refOut{lines, err}
	}()
	warm, err := sessionizeOnce(ctx, e, corp, filepath.Join(e.work, "warmup.sessions"))
	ref := <-refc
	if err != nil {
		return nil, err
	}
	if ref.err != nil {
		return nil, fmt.Errorf("reference: %w", ref.err)
	}
	res.Attempted++
	if !warm.check(res, corp, "warm-up") {
		res.Failed++
	}
	if got := sortedLines(warm.output); !equalLines(got, ref.lines) {
		res.failCheck("sessions differ from the naive reference as a sorted multiset (%d vs %d lines)", len(got), len(ref.lines))
	}
	res.Info["sessions"] = len(ref.lines)

	if cfg.Trace {
		if err := traceOffline(res, e, corp, ref.lines, sc); err != nil {
			return nil, err
		}
		res.reportMedians()
		res.finish(e.spec)
		return res, nil
	}

	// Every timed process runs between two yardstick readings.
	if _, err := res.yard.read(1); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	lines := float64(corp.Counts.Lines)
	for n := 0; n < sc.minRuns || time.Now().Before(deadline); n++ {
		run, err := sessionizeOnce(ctx, e, corp, filepath.Join(e.work, "timed.sessions"))
		if err != nil {
			return nil, err
		}
		slowdown, err := res.yard.read(1)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		ok := run.check(res, corp, fmt.Sprintf("run %d", n))
		if ok && run.sum != warm.sum {
			res.failCheck("run %d: sessions file differs from the warm-up's", n)
			ok = false
		}
		if !ok {
			res.Failed++
			continue
		}
		res.sampleTimes(lines, run.Wall.Seconds(), run.CPU.Seconds(), slowdown)
		res.sample("peak_rss_mib", float64(run.MaxRSS)/(1<<20))
	}
	res.Info["timed_runs"] = len(res.Samples["records_per_s"])
	res.reportMedians()
	res.finish(e.spec)
	return res, nil
}

// sessionizeRun is one finished sessionize process and what it wrote.
type sessionizeRun struct {
	*childRun
	output []byte
	sum    [sha256.Size]byte
}

// sessionizeOnce runs the tool the way an analyst would — streaming,
// Smart-SRA, sessions to a file — with one knob taken off auto: -workers 0,
// the sequential plan. On two cores the planner's probe reads 0.76x to 1.34x
// on one and the same file and picks the two-worker plan in 3 runs of 8,
// which runs 1.2-1.6 s against 1.8-2.4 s and peaks at 273 MiB against 200:
// left on auto, a run's median says how often the probe flipped, not how
// fast the code is. plan.resolve_ms reports what the probe costs.
func sessionizeOnce(ctx context.Context, e *env, c *corpus, out string) (*sessionizeRun, error) {
	child, err := runChild(ctx, e.tool("sessionize"),
		"-topology", c.TopologyPath, "-log", c.LogArg, "-stream", "-workers", "0", "-sessions", out)
	if err != nil {
		return nil, err
	}
	run := &sessionizeRun{childRun: child}
	if child.ExitCode == 0 {
		if run.output, err = os.ReadFile(out); err != nil {
			return nil, err
		}
		run.sum = sha256.Sum256(run.output)
	}
	return run, nil
}

var statsLine = regexp.MustCompile(`records=(\d+) malformed=(\d+) filtered=(\d+) unresolved=(\d+)`)

// check verifies exit status and that the tool's own count line equals the
// per-class counts the generator wrote.
func (r *sessionizeRun) check(res *runResult, c *corpus, what string) bool {
	if r.ExitCode != 0 {
		res.failCheck("%s: sessionize exited %d: %s", what, r.ExitCode, lastLine(r.Stderr))
		return false
	}
	m := statsLine.FindSubmatch(r.Stderr)
	if m == nil {
		res.failCheck("%s: no records=/malformed=/filtered=/unresolved= line on stderr", what)
		return false
	}
	var got classCounts
	for i, dst := range []*int{&got.Records, &got.Malformed, &got.Filtered, &got.Unresolved} {
		*dst, _ = strconv.Atoi(string(m[i+1]))
	}
	got.Lines = c.Counts.Lines
	if got != c.Counts {
		res.failCheck("%s: tool counted %+v, generator wrote %+v", what, got, c.Counts)
		return false
	}
	return true
}

// referenceSessions computes the expected sessions the naive way — one
// Scanner, one Tail, one Push per record, a final Flush — and returns the
// session lines sorted.
func referenceSessions(c *corpus) ([][]byte, error) {
	tail, err := core.NewTail(core.Config{Graph: c.Graph}, c.Rho)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	emit := func(s []session.Session) error {
		if len(s) == 0 {
			return nil
		}
		return session.WriteAll(&buf, s)
	}
	for _, p := range c.LogPaths {
		rc, err := clf.OpenDecoded(p)
		if err != nil {
			return nil, err
		}
		scan := clf.NewScanner(rc)
		for scan.Scan() {
			if err := emit(tail.Push(scan.Record())); err != nil {
				rc.Close()
				return nil, err
			}
		}
		rc.Close()
		if err := scan.Err(); err != nil {
			return nil, err
		}
	}
	if err := emit(tail.Flush()); err != nil {
		return nil, err
	}
	return sortedLines(buf.Bytes()), nil
}

// sortedLines splits data into lines (without the trailing empty one) and
// sorts them.
func sortedLines(data []byte) [][]byte {
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(data) == 0 {
		lines = nil
	}
	slices.SortFunc(lines, bytes.Compare)
	return lines
}

func equalLines(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, bytes.Equal)
}

func lastLine(b []byte) string {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return string(b)
}
