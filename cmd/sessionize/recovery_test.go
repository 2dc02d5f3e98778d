package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"smartsra/internal/checkpoint"
	"smartsra/internal/core"
	"smartsra/internal/faultio"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// The crash-recovery harness: sessionize -stream -checkpoint — runStream,
// the function main calls — over a corpus, crashed again and again by a
// failed or torn session write, and rerun each time as an operator would
// rerun the command. Every rerun resumes from the latest checkpoint (restore
// the snapshot, truncate the session file to the recorded sink offset,
// replay the log from the recorded position), and the finished session file
// must be byte-identical to an uninterrupted Ingest + Drain run — no lost
// sessions, no duplicates. Fault-injected checkpoint saves (failing and torn
// writes) and a torn session-file tail after each crash are part of every
// run.

// corpus is one input log plus the processing configuration under test.
type corpus struct {
	graph      *webgraph.Graph
	log        []byte
	chunkBytes int // small enough that the log spans many progress boundaries
}

func goldenCorpus(t *testing.T) corpus {
	t.Helper()
	log, err := os.ReadFile(filepath.Join("..", "..", "internal", "core", "testdata", "golden.log"))
	if err != nil {
		t.Fatalf("read golden corpus: %v", err)
	}
	g, _ := webgraph.PaperFigure1()
	return corpus{graph: g, log: log, chunkBytes: 256}
}

// simgenCorpus generates a >= 50k-record access log with the agent
// simulator, deterministically from fixed seeds.
func simgenCorpus(t *testing.T) corpus {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 300, AvgOutDegree: 15, StartPageFraction: 0.05,
		Model: webgraph.ModelUniform, EnsureReachable: true,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	params := simulator.PaperParams()
	params.Agents = 3000
	params.Seed = 8
	res, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	records := res.Log(g)
	if len(records) < 50000 {
		t.Fatalf("simgen corpus has %d records, need >= 50000 (raise Agents)", len(records))
	}
	for _, rec := range records {
		sb.WriteString(rec.String())
		sb.WriteByte('\n')
	}
	return corpus{graph: g, log: []byte(sb.String()), chunkBytes: 64 << 10}
}

var corpora = map[string]func(*testing.T) corpus{
	"golden": goldenCorpus,
	"simgen": simgenCorpus,
}

// config is what run gives runStream for -heuristic heur4, with the corpus's
// chunk size.
func (c corpus) config(t *testing.T) core.Config {
	h, err := pickHeuristic("heur4", c.graph)
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{Graph: c.graph, Heuristic: h, StreamChunkBytes: c.chunkBytes}
}

// referenceRun is the uninterrupted baseline: stream the whole log through a
// Tail, drain it, and render the complete session set.
func referenceRun(t *testing.T, c corpus) []byte {
	t.Helper()
	st, err := core.NewTail(c.config(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The sink's batches are lent (core.SessionSink): encode them while they
	// are valid instead of collecting them.
	var buf bytes.Buffer
	write := func(s []session.Session) {
		if err := session.WriteAll(&buf, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Ingest(bytes.NewReader(c.log), write, nil); err != nil {
		t.Fatal(err)
	}
	st.Drain(write)
	return buf.Bytes()
}

// checkpointFaults is the checkpoint file system every crash test runs on:
// every 5th file write fails and every 7th is torn, so saves keep failing
// throughout a run, and recovery must shrug it off because the atomic rename
// keeps the previous checkpoint intact.
func checkpointFaults() *faultio.FS {
	return &faultio.FS{
		WriteFaults: func(call int) faultio.Fault {
			switch {
			case call%5 == 4:
				return faultio.Fail
			case call%7 == 6:
				return faultio.Short
			default:
				return faultio.OK
			}
		},
	}
}

// crashRig runs sessionize -stream -checkpoint over one input set, crashing
// it on demand.
type crashRig struct {
	c     corpus
	paths []string
	opts  options
	fsys  checkpoint.FS
}

func newCrashRig(t *testing.T, c corpus, paths []string, fsys checkpoint.FS) *crashRig {
	dir := filepath.Dir(paths[0])
	old := sessionWriter
	t.Cleanup(func() { sessionWriter = old })
	return &crashRig{c: c, paths: paths, fsys: fsys, opts: options{
		stream:   true,
		sessPath: filepath.Join(dir, "sessions.txt"),
		ckptPath: filepath.Join(dir, "state.ckpt"),
		// Every chunk boundary is a checkpoint.
		ckptEvery: 0,
	}}
}

// run is one sessionize run. Its session writes go through a faultio.Writer
// that gives fault to the first write starting at or past byte killAt of the
// session file: the process dies there, a Short fault halfway through the
// write. The dying process then manages a last torn line, which the next
// run's truncation must discard. killAt < 0 never crashes. run reports
// whether the run crashed, and its notices.
func (r *crashRig) run(t *testing.T, killAt int64, fault faultio.Fault) (crashed bool, notices string) {
	t.Helper()
	sessionWriter = func(f *os.File) io.Writer {
		return &faultio.Writer{W: f, Schedule: func(int) faultio.Fault {
			if off, err := f.Seek(0, io.SeekCurrent); err == nil && killAt >= 0 && off >= killAt {
				return fault
			}
			return faultio.OK
		}}
	}
	var log bytes.Buffer
	err := runStream(r.c.config(t), r.opts, r.paths, nil, r.fsys, &log)
	if err == nil {
		return false, log.String()
	}
	if !errors.Is(err, faultio.ErrInjected) || killAt < 0 {
		t.Fatalf("kill at %d: run returned %v, want the injected crash; notices:\n%s", killAt, err, &log)
	}
	f, err := os.OpenFile(r.opts.sessPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString("10.9.9.9 - - [torn mid-li"); err != nil {
		t.Fatal(err)
	}
	return true, log.String()
}

// lastWrite runs sessionize to completion on a fresh state and returns where
// its last session write starts. Every run that reaches the end of the log
// writes there — the Tail's emission does not depend on where a run resumed,
// every chunk boundary flushes, and the drain's writes follow the last one —
// so a kill at or before it crashes any run that has not finished.
func (r *crashRig) lastWrite(t *testing.T) int64 {
	t.Helper()
	last := int64(-1)
	sessionWriter = func(f *os.File) io.Writer {
		return &faultio.Writer{W: f, Schedule: func(int) faultio.Fault {
			last, _ = f.Seek(0, io.SeekCurrent)
			return faultio.OK
		}}
	}
	var log bytes.Buffer
	if err := runStream(r.c.config(t), r.opts, r.paths, nil, checkpoint.OS, &log); err != nil {
		t.Fatalf("uninterrupted run: %v; notices:\n%s", err, &log)
	}
	for _, p := range []string{r.opts.sessPath, r.opts.ckptPath} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if last < 0 {
		t.Fatal("uninterrupted run wrote no sessions")
	}
	return last
}

// crashThenFinish crashes a run at each of kills, alternating failed and
// torn writes, then runs to completion, twice. It returns the notices of
// every run.
func (r *crashRig) crashThenFinish(t *testing.T, kills []int64) string {
	t.Helper()
	var notices strings.Builder
	for i, killAt := range kills {
		fault := faultio.Fail
		if i%2 == 1 {
			fault = faultio.Short
		}
		crashed, log := r.run(t, killAt, fault)
		if !crashed {
			t.Fatalf("run with kill at byte %d ran to completion", killAt)
		}
		notices.WriteString(log)
	}
	// The finishing run, then a rerun of the finished command, which resumes
	// at the end of the log and must leave the session file as it is.
	for range 2 {
		crashed, log := r.run(t, -1, faultio.OK)
		if crashed {
			t.Fatal("uninterrupted run crashed")
		}
		notices.WriteString(log)
	}
	return notices.String()
}

// requireSessions fails unless the session file is want.
func (r *crashRig) requireSessions(t *testing.T, want []byte, what string) {
	t.Helper()
	info, err := os.Stat(r.opts.sessPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(len(want)) { // before reading a file cut to a wild length
		t.Fatalf("%s: session file is %d bytes, the uninterrupted run wrote %d", what, info.Size(), len(want))
	}
	got, err := os.ReadFile(r.opts.sessPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: recovered session file differs from the uninterrupted run", what)
	}
}

// sortedKills draws n kill points in [0, last], in order: each crash comes
// no earlier in the session file than the one before.
func sortedKills(rng *rand.Rand, n int, last int64) []int64 {
	kills := make([]int64, n)
	for i := range kills {
		kills[i] = rng.Int63n(last + 1)
	}
	sort.Slice(kills, func(i, j int) bool { return kills[i] < kills[j] })
	return kills
}

var resumedAt = regexp.MustCompile(`sessionize: resuming (\S+) from byte (\d+) `)

// resumes lists the (path, offset) positions the notices say runs resumed
// from.
func resumes(t *testing.T, notices string) (paths []string, offsets []int64) {
	t.Helper()
	for _, m := range resumedAt.FindAllStringSubmatch(notices, -1) {
		off, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		paths, offsets = append(paths, m[1]), append(offsets, off)
	}
	return paths, offsets
}

func TestCrashRecoveryEquivalence(t *testing.T) {
	for name, load := range corpora {
		t.Run(name, func(t *testing.T) {
			c := load(t)
			want := referenceRun(t, c)
			for seed := int64(1); seed <= 3; seed++ {
				dir := t.TempDir()
				logPath := filepath.Join(dir, "access.log")
				if err := os.WriteFile(logPath, c.log, 0o644); err != nil {
					t.Fatal(err)
				}
				rig := newCrashRig(t, c, []string{logPath}, checkpointFaults())
				kills := sortedKills(rand.New(rand.NewSource(seed)), 4, rig.lastWrite(t))
				notices := rig.crashThenFinish(t, kills)
				rig.requireSessions(t, want, fmt.Sprintf("seed %d", seed))
				if _, offsets := resumes(t, notices); len(offsets) == 0 {
					t.Fatalf("seed %d: no run resumed from a checkpoint; notices:\n%s", seed, notices)
				}
			}
		})
	}
}

// TestCrashRecoveryCorruptCheckpointFallsBack: when the checkpoint file is
// damaged after a crash, recovery must detect it (CRC) and fall back to a
// full replay — ending byte-identical, never loading poisoned state.
func TestCrashRecoveryCorruptCheckpointFallsBack(t *testing.T) {
	c := goldenCorpus(t)
	want := referenceRun(t, c)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, c.log, 0o644); err != nil {
		t.Fatal(err)
	}
	rig := newCrashRig(t, c, []string{logPath}, checkpoint.OS)
	if crashed, _ := rig.run(t, rig.lastWrite(t)*2/3, faultio.Fail); !crashed {
		t.Fatal("kill run ran to completion")
	}
	data, err := os.ReadFile(rig.opts.ckptPath)
	if err != nil {
		t.Fatalf("no checkpoint written before the crash: %v", err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(rig.opts.ckptPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	crashed, notices := rig.run(t, -1, faultio.OK)
	if crashed {
		t.Fatal("full-replay run crashed")
	}
	if !strings.Contains(notices, "sessionize: checkpoint unusable, starting over: checkpoint: corrupt") || resumedAt.MatchString(notices) {
		t.Fatalf("the corrupt checkpoint was not refused:\n%s", notices)
	}
	rig.requireSessions(t, want, "full-replay fallback")
}

// rotateCorpus splits c.log at line boundaries into three files under dir:
// plain (trailing newline stripped), gzip, plain.
func rotateCorpus(t *testing.T, c corpus, dir string) []string {
	t.Helper()
	lines := bytes.SplitAfter(c.log, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) < 3 {
		t.Fatalf("corpus has %d lines, cannot rotate into 3 files", len(lines))
	}
	per := (len(lines) + 2) / 3
	cut := func(i, j int) []byte {
		if j > len(lines) {
			j = len(lines)
		}
		return bytes.Join(lines[i:j], nil)
	}
	paths := []string{
		filepath.Join(dir, "access.log.0"),
		filepath.Join(dir, "access.log.1.gz"),
		filepath.Join(dir, "access.log.2"),
	}
	if err := os.WriteFile(paths[0], bytes.TrimSuffix(cut(0, per), []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(cut(per, 2*per)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[2], cut(2*per, len(lines)), 0o644); err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestCrashRecoveryMultiFile is the harness over a rotated three-file set —
// the middle member gzip-compressed, the first missing its final newline —
// where a resume must land at the recorded (file, offset) position,
// including inside the gzip member, whose offsets count decoded bytes.
func TestCrashRecoveryMultiFile(t *testing.T) {
	for name, load := range corpora {
		t.Run(name, func(t *testing.T) {
			c := load(t)
			want := referenceRun(t, c)
			inGzip := 0
			for seed := int64(1); seed <= 2; seed++ {
				paths := rotateCorpus(t, c, t.TempDir())
				rig := newCrashRig(t, c, paths, checkpointFaults())
				kills := sortedKills(rand.New(rand.NewSource(seed)), 4, rig.lastWrite(t))
				notices := rig.crashThenFinish(t, kills)
				rig.requireSessions(t, want, fmt.Sprintf("seed %d", seed))
				at, offsets := resumes(t, notices)
				if len(at) == 0 {
					t.Fatalf("seed %d: no run resumed from a checkpoint; notices:\n%s", seed, notices)
				}
				for i := range at {
					if at[i] == paths[1] && offsets[i] > 0 {
						inGzip++
					}
				}
			}
			if inGzip == 0 {
				t.Fatal("no run resumed inside the gzip member")
			}
		})
	}
}
