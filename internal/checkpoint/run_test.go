package checkpoint_test

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
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/faultio"
	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// The crash-recovery harness: checkpoint.Run — the one streaming run behind
// sessionize -stream and serve's owner — over a corpus, crashed again and
// again in both of its failure modes and resumed each time as the tools
// resume it: restore the snapshot, truncate the session file to the
// recorded sink offset, replay the log from the recorded position with the
// journaled cuts still due. The finished session file must be byte-identical
// to an uninterrupted run — no lost sessions, no duplicates — and so must
// the run's counters, malformed lines included.
//
// Fail-stop, as sessionize runs it: a failed or torn session write ends the
// run, the dying process manages a last torn line, and the command is rerun.
// Hold and retry, as serve's owner runs it: a refused batch is held and
// retried while the log grows, the owner is abandoned with a batch held, as
// a kill leaves it, and a start-up replay with journaled cuts still due is
// crashed too. Fault-injected checkpoint saves (failing and torn writes) are
// part of every run.

// corpus is one input log plus the processing configuration under test.
type corpus struct {
	graph      *webgraph.Graph
	log        []byte
	chunkBytes int // small enough that the log spans many progress boundaries
}

func goldenCorpus(t *testing.T) corpus {
	t.Helper()
	log, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden.log"))
	if err != nil {
		t.Fatalf("read golden corpus: %v", err)
	}
	g, _ := webgraph.PaperFigure1()
	return corpus{graph: g, log: log, chunkBytes: 256}
}

// garbled is c's log with every nth line overwritten, to its newline, by
// bytes no parser accepts.
func garbled(c corpus, n int) corpus {
	c.log = bytes.Clone(c.log)
	for i, line := 0, c.log; len(line) > 0; i++ {
		end := bytes.IndexByte(line, '\n') + 1
		if i%n == n-1 {
			copy(line[:end-1], bytes.Repeat([]byte("#"), end-1))
		}
		line = line[end:]
	}
	return c
}

// simTopology is the simulated site of the simgen and live corpora.
func simTopology(t *testing.T) *webgraph.Graph {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 300, AvgOutDegree: 15, StartPageFraction: 0.05,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func simulate(t *testing.T, g *webgraph.Graph, agents int) *simulator.Result {
	t.Helper()
	params := simulator.PaperParams()
	params.Agents = agents
	params.Seed = 8
	res, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// simgenCorpus generates a >= 50k-record access log with the agent
// simulator, deterministically from fixed seeds.
func simgenCorpus(t *testing.T) corpus {
	t.Helper()
	g := simTopology(t)
	var sb strings.Builder
	records := simulate(t, g, 3000).Log(g)
	if len(records) < 50000 {
		t.Fatalf("simgen corpus has %d records, need >= 50000 (raise Agents)", len(records))
	}
	for _, rec := range records {
		sb.WriteString(rec.String())
		sb.WriteByte('\n')
	}
	return corpus{graph: g, log: []byte(sb.String()), chunkBytes: 64 << 10}
}

// corpora are the logs every fail-stop schedule runs over. The garbled one
// is golden with every 5th of its 25 lines malformed.
var corpora = map[string]func(*testing.T) corpus{
	"golden":  goldenCorpus,
	"garbled": func(t *testing.T) corpus { return garbled(goldenCorpus(t), 5) },
	"simgen":  simgenCorpus,
}

// config is the heur4 configuration sessionize runs, with the corpus's chunk
// size.
func (c corpus) config() core.Config {
	return core.Config{Graph: c.graph, Heuristic: heuristics.NewSmartSRA(c.graph), StreamChunkBytes: c.chunkBytes}
}

func newTail(t *testing.T, c corpus) *core.Tail {
	t.Helper()
	st, err := core.NewTail(c.config(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// encoder is a sink that renders what it is lent into buf.
func encoder(t *testing.T, buf *bytes.Buffer) core.SessionSink {
	return func(s []session.Session) {
		if err := session.WriteAll(buf, s); err != nil {
			t.Fatal(err)
		}
	}
}

// referenceRun is the uninterrupted baseline: stream the whole log through a
// Tail, drain it, and render the complete session set; with the Tail's
// counters, the pipeline: line sessionize prints.
func referenceRun(t *testing.T, c corpus) ([]byte, core.Stats) {
	t.Helper()
	st := newTail(t, c)
	var buf bytes.Buffer
	if _, err := st.Ingest(bytes.NewReader(c.log), encoder(t, &buf), nil); err != nil {
		t.Fatal(err)
	}
	st.Drain(encoder(t, &buf))
	return buf.Bytes(), st.Stats()
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
	c                  corpus
	paths              []string
	sessPath, ckptPath string
	fsys               checkpoint.FS
}

func newCrashRig(c corpus, paths []string, fsys checkpoint.FS) *crashRig {
	dir := filepath.Dir(paths[0])
	return &crashRig{c: c, paths: paths, fsys: fsys,
		sessPath: filepath.Join(dir, "sessions.txt"), ckptPath: filepath.Join(dir, "state.ckpt")}
}

// stream is one sessionize -stream -checkpoint run, checkpointing at every
// chunk boundary, as cmd/sessionize drives the runner: Recover, Ingest,
// Finish and the final Save. Its session writes go through wrap(run), in
// front of run.Out.F. It returns the run's counters and notices.
func (r *crashRig) stream(t *testing.T, fsys checkpoint.FS, wrap func(*checkpoint.Run) io.Writer) (core.Stats, string, error) {
	t.Helper()
	out, err := checkpoint.OpenSink(r.sessPath)
	if err != nil {
		t.Fatal(err)
	}
	defer out.F.Close()
	var log bytes.Buffer
	run := &checkpoint.Run{Tail: newTail(t, r.c), Out: out, Paths: r.paths,
		Ckpt: checkpoint.NewWriter(fsys, r.ckptPath, 0), Notices: &log, Name: "sessionize"}
	out.W = wrap(run)
	err = run.Recover()
	if err == nil {
		err = run.Ingest(nil)
	}
	if err == nil {
		err = run.Finish()
	}
	if err == nil {
		if serr := run.Save(); serr != nil {
			fmt.Fprintln(&log, "sessionize: final checkpoint:", serr)
		}
	}
	return run.Tail.Stats(), log.String(), err
}

// run is one sessionize run. Its session writes go through a faultio.Writer
// that gives fault to the first write starting at or past byte killAt of the
// session file: the process dies there, a Short fault halfway through the
// write. The dying process then manages a last torn line, which the next
// run's truncation must discard. killAt < 0 never crashes. run reports
// whether the run crashed, its counters and its notices.
func (r *crashRig) run(t *testing.T, killAt int64, fault faultio.Fault) (crashed bool, stats core.Stats, notices string) {
	t.Helper()
	stats, notices, err := r.stream(t, r.fsys, func(run *checkpoint.Run) io.Writer {
		f := run.Out.F
		return &faultio.Writer{W: f, Schedule: func(int) faultio.Fault {
			if off, err := f.Seek(0, io.SeekCurrent); err == nil && killAt >= 0 && off >= killAt {
				return fault
			}
			return faultio.OK
		}}
	})
	if err == nil {
		return false, stats, notices
	}
	if !errors.Is(err, faultio.ErrInjected) || killAt < 0 {
		t.Fatalf("kill at %d: run returned %v, want the injected crash; notices:\n%s", killAt, err, notices)
	}
	f, err := os.OpenFile(r.sessPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString("10.9.9.9 - - [torn mid-li"); err != nil {
		t.Fatal(err)
	}
	return true, stats, notices
}

// write is one session write of an uninterrupted run: where it starts in the
// session file, and where in the log the run stood — its last chunk
// boundary, where it last checkpointed — when it wrote.
type write struct {
	at  int64
	pos clf.FilePos
}

// writes runs sessionize to completion on a fresh state and lists its session
// writes. Every run writes the same bytes at the same offsets — the Tail's
// emission does not depend on where a run resumed, every sunk batch is
// written as it is sunk, and the drain's writes follow the last one — so a
// kill at or before the last write's start crashes any run that has not
// finished.
func (r *crashRig) writes(t *testing.T) []write {
	t.Helper()
	var ws []write
	_, notices, err := r.stream(t, checkpoint.OS, func(run *checkpoint.Run) io.Writer {
		return &faultio.Writer{W: run.Out.F, Schedule: func(int) faultio.Fault {
			at, _ := run.Out.F.Seek(0, io.SeekCurrent)
			ws = append(ws, write{at: at, pos: run.Pos})
			return faultio.OK
		}}
	})
	if err != nil {
		t.Fatalf("uninterrupted run: %v; notices:\n%s", err, notices)
	}
	for _, p := range []string{r.sessPath, r.ckptPath} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if len(ws) == 0 {
		t.Fatal("uninterrupted run wrote no sessions")
	}
	return ws
}

// lastWrite is where the uninterrupted run's last session write starts.
func (r *crashRig) lastWrite(t *testing.T) int64 {
	t.Helper()
	ws := r.writes(t)
	return ws[len(ws)-1].at
}

// crashThenFinish crashes a run at each of kills, alternating failed and
// torn writes, then runs to completion, twice; both complete runs must count
// what the uninterrupted run counted. It returns the notices of every run.
func (r *crashRig) crashThenFinish(t *testing.T, kills []int64, want core.Stats) string {
	t.Helper()
	var notices strings.Builder
	for i, killAt := range kills {
		fault := faultio.Fail
		if i%2 == 1 {
			fault = faultio.Short
		}
		crashed, _, log := r.run(t, killAt, fault)
		if !crashed {
			t.Fatalf("run with kill at byte %d ran to completion", killAt)
		}
		notices.WriteString(log)
	}
	// The finishing run, then a rerun of the finished command, which resumes
	// at the end of the log and must leave the session file as it is.
	for range 2 {
		crashed, stats, log := r.run(t, -1, faultio.OK)
		if crashed {
			t.Fatal("uninterrupted run crashed")
		}
		notices.WriteString(log)
		if stats != want {
			t.Fatalf("pipeline: %s after the crashes, the uninterrupted run's is %s; notices:\n%s", stats, want, &notices)
		}
	}
	return notices.String()
}

// requireFile fails unless the file at path is want.
func requireFile(t *testing.T, path string, want []byte, what string) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(len(want)) { // before reading a file cut to a wild length
		t.Fatalf("%s: session file is %d bytes, the uninterrupted run wrote %d", what, info.Size(), len(want))
	}
	got, err := os.ReadFile(path)
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
	slices.Sort(kills)
	return kills
}

// memberKill draws a kill point among the session writes ws made while the
// run stood inside the gzip member, paths[1], past its first byte: the run it
// crashes checkpointed inside the member before that write.
func memberKill(t *testing.T, rng *rand.Rand, ws []write) int64 {
	t.Helper()
	var in []int64
	for _, w := range ws {
		if w.pos.File == 1 && w.pos.Offset > 0 {
			in = append(in, w.at)
		}
	}
	if len(in) == 0 {
		t.Fatal("the uninterrupted run wrote no session from inside the gzip member")
	}
	return in[rng.Intn(len(in))]
}

var resumedAt = regexp.MustCompile(`\w+: resuming (\S+) from byte (\d+) `)

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
			want, stats := referenceRun(t, c)
			if name == "garbled" && stats.Malformed == 0 {
				t.Fatal("the garbled corpus has no malformed line")
			}
			for seed := int64(1); seed <= 3; seed++ {
				dir := t.TempDir()
				logPath := filepath.Join(dir, "access.log")
				if err := os.WriteFile(logPath, c.log, 0o644); err != nil {
					t.Fatal(err)
				}
				rig := newCrashRig(c, []string{logPath}, checkpointFaults())
				kills := sortedKills(rand.New(rand.NewSource(seed)), 4, rig.lastWrite(t))
				notices := rig.crashThenFinish(t, kills, stats)
				requireFile(t, rig.sessPath, want, fmt.Sprintf("seed %d", seed))
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
	want, _ := referenceRun(t, c)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, c.log, 0o644); err != nil {
		t.Fatal(err)
	}
	rig := newCrashRig(c, []string{logPath}, checkpoint.OS)
	if crashed, _, _ := rig.run(t, rig.lastWrite(t)*2/3, faultio.Fail); !crashed {
		t.Fatal("kill run ran to completion")
	}
	data, err := os.ReadFile(rig.ckptPath)
	if err != nil {
		t.Fatalf("no checkpoint written before the crash: %v", err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(rig.ckptPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	crashed, _, notices := rig.run(t, -1, faultio.OK)
	if crashed {
		t.Fatal("full-replay run crashed")
	}
	if !strings.Contains(notices, "sessionize: checkpoint unusable, starting over: checkpoint: corrupt") || resumedAt.MatchString(notices) {
		t.Fatalf("the corrupt checkpoint was not refused:\n%s", notices)
	}
	requireFile(t, rig.sessPath, want, "full-replay fallback")
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
// including inside the gzip member, whose offsets count decoded bytes. One
// kill of each seed falls among the session writes the uninterrupted run
// made after a chunk boundary inside the member, so a resume lands there by
// construction; the other three are drawn from the whole file.
func TestCrashRecoveryMultiFile(t *testing.T) {
	for name, load := range corpora {
		t.Run(name, func(t *testing.T) {
			c := load(t)
			want, stats := referenceRun(t, c)
			for seed := int64(1); seed <= 2; seed++ {
				paths := rotateCorpus(t, c, t.TempDir())
				rig := newCrashRig(c, paths, checkpointFaults())
				ws := rig.writes(t)
				rng := rand.New(rand.NewSource(seed))
				kills := append(sortedKills(rng, 3, ws[len(ws)-1].at), memberKill(t, rng, ws))
				slices.Sort(kills)
				notices := rig.crashThenFinish(t, kills, stats)
				requireFile(t, rig.sessPath, want, fmt.Sprintf("seed %d", seed))
				at, offsets := resumes(t, notices)
				if len(at) == 0 {
					t.Fatalf("seed %d: no run resumed from a checkpoint; notices:\n%s", seed, notices)
				}
				inGzip := false
				for i := range at {
					inGzip = inGzip || at[i] == paths[1] && offsets[i] > 0
				}
				if !inGzip {
					t.Fatalf("seed %d: no run resumed inside the gzip member; notices:\n%s", seed, notices)
				}
			}
		})
	}
}

// liveRig drives the runner as serve's owner does, over an access log it
// appends to as a server logs requests: the simulated traffic of a small
// site in time order, every 50th line garbled. Each step logs a few lines
// and then takes one message: read the log (catchUp), an expiry at a clock
// the step draws, or a checkpoint. Session writes go through a seeded
// schedule of failed and torn writes, so batches are held and retried.
type liveRig struct {
	t                           *testing.T
	c                           corpus
	rng                         *rand.Rand
	logPath, sessPath, ckptPath string
	lines                       [][]byte
	times                       []time.Time // each line's time: a garbled line has its predecessor's
	logged                      int         // lines appended to the log so far
	writes                      faultio.Schedule
	mode                        int // writesRandom, writesDown or writesClean
	notices                     bytes.Buffer
}

// Modes of the live rig's session-write schedule.
const (
	writesRandom = iota // the seed's own failed and torn writes
	writesDown          // every write fails: an outage
	writesClean         // every write lands
)

func newLiveRig(t *testing.T, seed int64) *liveRig {
	g := simTopology(t)
	dir := t.TempDir()
	l := &liveRig{t: t, c: corpus{graph: g, chunkBytes: 4096}, rng: rand.New(rand.NewSource(seed)),
		logPath: filepath.Join(dir, "access.log"), sessPath: filepath.Join(dir, "sessions.txt"),
		ckptPath: filepath.Join(dir, "state.ckpt")}
	for i, r := range simulate(t, g, 200).Schedule(g) {
		rec := clf.Record{Host: r.User, Ident: "-", AuthUser: "-", Time: r.At, Method: "GET",
			URI: r.URI, Protocol: "HTTP/1.1", Status: 200, Bytes: 100}
		line := rec.String() + "\n"
		if i%50 == 49 {
			line = "garbled line " + strconv.Itoa(i) + "\n"
		}
		l.lines, l.times = append(l.lines, []byte(line)), append(l.times, r.At)
	}
	faults := make([]faultio.Fault, 4096)
	for i := range faults {
		if l.rng.Intn(4) == 0 {
			faults[i] = faultio.Fault(1 + l.rng.Intn(2))
		}
	}
	l.writes = func(call int) faultio.Fault {
		switch l.mode {
		case writesDown:
			return faultio.Fail
		case writesRandom:
			return faults[call%len(faults)]
		}
		return faultio.OK
	}
	if err := os.WriteFile(l.logPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return l
}

// start is serve's start-up with -checkpoint: open the session file and the
// cut journal, recover and replay the log to its end, save. A replay the
// session file refuses fails start-up, and the run's files are closed.
func (l *liveRig) start() (*checkpoint.Run, error) {
	out, err := checkpoint.OpenSink(l.sessPath)
	if err != nil {
		l.t.Fatal(err)
	}
	out.W = &faultio.Writer{W: out.F, Schedule: l.writes}
	journal, err := os.OpenFile(l.sessPath+".cuts", os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		l.t.Fatal(err)
	}
	run := &checkpoint.Run{Tail: newTail(l.t, l.c), Out: out, Paths: []string{l.logPath},
		Ckpt: checkpoint.NewWriter(checkpointFaults(), l.ckptPath, 0), Journal: journal, Notices: &l.notices, Name: "serve"}
	err = run.Recover()
	if err == nil {
		err = run.Ingest(nil)
	}
	if err != nil {
		l.abandon(run)
		return nil, err
	}
	run.Save() // a failed save leaves the previous checkpoint
	return run, nil
}

// abandon closes the run's files under it, with no stop sequence: what a kill
// leaves behind.
func (l *liveRig) abandon(run *checkpoint.Run) {
	run.Out.F.Close()
	run.Journal.Close()
}

// logLines appends the next n lines to the access log.
func (l *liveRig) logLines(n int) {
	n = min(n, len(l.lines)-l.logged)
	f, err := os.OpenFile(l.logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		l.t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(bytes.Join(l.lines[l.logged:l.logged+n], nil)); err != nil {
		l.t.Fatal(err)
	}
	l.logged += n
}

// catchUp is the owner's: retry what is held, then push the log from where
// the run stands to its end, a few KiB of whole lines at a time, until a
// batch is held. It reports whether nothing is held.
func (l *liveRig) catchUp(run *checkpoint.Run) bool {
	if !run.Retry() {
		return false
	}
	log := bytes.Join(l.lines[:l.logged], nil)
	for data := log[run.Pos.Offset:]; len(data) > 0; {
		n := min(len(data), 1+l.rng.Intn(8<<10))
		n += bytes.IndexByte(data[n-1:], '\n')
		run.Push(data[:n])
		data = data[n:]
		if run.Held() > 0 {
			return false
		}
	}
	return true
}

// step logs a few lines and takes one message.
func (l *liveRig) step(run *checkpoint.Run) {
	l.logLines(1 + l.rng.Intn(20))
	switch l.rng.Intn(10) {
	case 0:
		if l.catchUp(run) {
			now := l.times[l.logged-1].Add(time.Duration(l.rng.Int63n(int64(2 * session.DefaultPageStay))))
			if err := run.Expire(now); err != nil {
				l.t.Fatal(err)
			}
		}
	case 1:
		if l.catchUp(run) {
			run.Save()
		}
	default:
		l.catchUp(run)
	}
}

// outage lands what is held, serves until users are open and saves a
// checkpoint, then fails every session write: the expiry that closes those
// users is journaled and its batch held, and the run is abandoned there.
func (l *liveRig) outage(run *checkpoint.Run) {
	l.mode = writesClean
	for !l.catchUp(run) {
	}
	for run.Tail.ActiveUsers() == 0 {
		l.logLines(1)
		l.catchUp(run)
	}
	for run.Save() != nil { // the checkpoint file system fails some saves
	}
	l.mode = writesDown
	if err := run.Expire(l.times[l.logged-1].Add(3 * session.DefaultPageStay)); err != nil {
		l.t.Fatal(err)
	}
	if run.Held() == 0 {
		l.t.Fatal("the expiry in the outage held no batch")
	}
	l.abandon(run)
}

// finish logs the rest of the traffic beside the seed's faults, then stops
// as serve does: lands what is held, drains every open burst, saves.
func (l *liveRig) finish(run *checkpoint.Run) {
	l.mode = writesRandom
	for l.logged < len(l.lines) {
		l.step(run)
	}
	l.mode = writesClean
	for !l.catchUp(run) {
	}
	if err := run.Finish(); err != nil {
		l.t.Fatal(err)
	}
	run.Save()
	l.abandon(run)
}

// requireCutReplay fails unless the session file and the run's counters are
// what sessionize -stream -cuts makes of the access log and the cut journal.
func (l *liveRig) requireCutReplay(run *checkpoint.Run) {
	l.t.Helper()
	journal, err := os.ReadFile(l.sessPath + ".cuts")
	if err != nil {
		l.t.Fatal(err)
	}
	cuts, err := core.ReadCuts(bytes.NewReader(journal))
	if err != nil {
		l.t.Fatal(err)
	}
	st := newTail(l.t, l.c)
	var want bytes.Buffer
	if _, err := st.IngestFilesCuts([]string{l.logPath}, clf.FilePos{}, 0, cuts, encoder(l.t, &want), nil); err != nil {
		l.t.Fatal(err)
	}
	st.Drain(encoder(l.t, &want))
	requireFile(l.t, l.sessPath, want.Bytes(), "live run")
	if got := run.Tail.Stats(); got != st.Stats() || got.Malformed == 0 {
		l.t.Fatalf("pipeline: %s, the cut replay's is %s", got, st.Stats())
	}
}

// TestCrashRecoveryHoldAndRetry: serve's owner abandoned in an outage with a
// batch held — the last checkpoint from before it, a cut journaled after it,
// a session file perhaps ending in a torn write and a log the owner stopped
// reading — is followed by a second one on the same files, which recovers
// and serves on to the cut replay's bytes.
func TestCrashRecoveryHoldAndRetry(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			l := newLiveRig(t, seed)
			run, err := l.start()
			if err != nil {
				t.Fatal(err)
			}
			for l.logged < len(l.lines)/3+l.rng.Intn(len(l.lines)/3) {
				l.step(run)
			}
			l.outage(run)
			l.mode = writesClean
			if run, err = l.start(); err != nil {
				t.Fatalf("restart: %v\n%s", err, &l.notices)
			}
			if !resumedAt.MatchString(l.notices.String()) {
				t.Fatalf("the restart did not resume from a checkpoint:\n%s", &l.notices)
			}
			l.finish(run)
			l.requireCutReplay(run)
		})
	}
}

// TestCrashRecoveryStartupReplay: the start-up replay after such a crash has
// a journaled cut still due, so it saves no checkpoint until it ends; a
// session file that refuses its writes fails it, and the start after that
// still recovers from the checkpoint before the outage to the cut replay's
// bytes.
func TestCrashRecoveryStartupReplay(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			l := newLiveRig(t, seed)
			run, err := l.start()
			if err != nil {
				t.Fatal(err)
			}
			for l.logged < len(l.lines)/3+l.rng.Intn(len(l.lines)/3) {
				l.step(run)
			}
			l.outage(run)
			l.logLines(1 + l.rng.Intn(200)) // served while the owner was down
			before, err := os.ReadFile(l.ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			l.notices.Reset()
			if _, err := l.start(); !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("start-up replay in an outage = %v, want the refused write", err)
			}
			if !strings.Contains(l.notices.String(), "serve: replaying ") {
				t.Fatalf("the failed start-up had no journaled cut to replay:\n%s", &l.notices)
			}
			if after, _ := os.ReadFile(l.ckptPath); !bytes.Equal(after, before) {
				t.Fatal("the failed start-up replay saved a checkpoint")
			}
			l.mode = writesClean
			if run, err = l.start(); err != nil {
				t.Fatalf("restart: %v\n%s", err, &l.notices)
			}
			l.finish(run)
			l.requireCutReplay(run)
		})
	}
}
