package checkpoint_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/faultio"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// The headline robustness harness: run serve-style streaming ingestion over
// a corpus, kill it at randomized byte offsets, recover from the latest
// checkpoint (restore snapshot, truncate the session file to the recorded
// sink offset, replay the log from the recorded log offset), and require the
// final session file to be byte-identical to an uninterrupted run — no lost
// sessions, no duplicates. Fault-injected checkpoint saves (failing and torn
// writes) and torn session-file tails are part of every run.

var errKilled = errors.New("simulated crash")

// killReader passes through r and fails with errKilled once the configured
// number of bytes has been consumed — the process dying mid-read.
type killReader struct {
	r         io.Reader
	remaining int64
}

func (k *killReader) Read(p []byte) (int, error) {
	if k.remaining <= 0 {
		return 0, errKilled
	}
	if int64(len(p)) > k.remaining {
		p = p[:k.remaining]
	}
	n, err := k.r.Read(p)
	k.remaining -= int64(n)
	return n, err
}

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

func (c corpus) config() core.Config {
	return core.Config{Graph: c.graph, StreamChunkBytes: c.chunkBytes}
}

// referenceRun is the uninterrupted baseline: stream the whole log, flush,
// and render the complete session set.
func referenceRun(t *testing.T, c corpus) []byte {
	t.Helper()
	st, err := core.NewTail(c.config(), 0)
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

// attempt runs one serve-style ingestion pass: recover from the checkpoint
// (if any), replay the log from the recorded offset, checkpoint every few
// chunk boundaries through fsys, and — when killAt >= 0 — crash at that byte
// offset, leaving a torn tail on the session file. It returns whether the
// pass ran to completion (flushing open bursts into the session file).
func attempt(t *testing.T, c corpus, sinkPath, ckptPath string, fsys checkpoint.FS, killAt int64) bool {
	t.Helper()

	ck, _, err := checkpoint.Resume(fsys, ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewTail(c.config(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var start, sinkLen int64
	if ck != nil {
		if err := st.Restore(ck.Tail); err != nil {
			t.Fatalf("restore: %v", err)
		}
		start, sinkLen = ck.LogOffset, ck.SinkOffset
	}

	f, err := os.OpenFile(sinkPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Discard everything past the checkpoint's sink offset: those sessions
	// will be re-emitted by the replay (this also removes any torn tail the
	// previous crash left).
	if err := f.Truncate(sinkLen); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(sinkLen, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)

	var reader io.Reader = bytes.NewReader(c.log[start:])
	if killAt >= 0 {
		reader = &killReader{r: reader, remaining: killAt - start}
	}

	boundaries := 0
	_, ingestErr := st.Ingest(reader, func(s []session.Session) {
		if err := session.WriteAll(bw, s); err != nil {
			t.Fatal(err)
		}
	}, func(pos clf.FilePos) error {
		boundaries++
		if boundaries%3 != 0 {
			return nil
		}
		// A consistent point: flush the sink so SinkOffset covers every
		// session emitted up to this chunk boundary, then snapshot.
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		size, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			t.Fatal(err)
		}
		// A failed save is survivable by design: the previous checkpoint
		// stays valid, recovery just replays a longer suffix.
		checkpoint.Save(fsys, ckptPath, &checkpoint.Checkpoint{
			LogOffset:  start + pos.Offset,
			SinkOffset: size,
			Tail:       st.Snapshot(),
		})
		return nil
	})

	if killAt >= 0 {
		if !errors.Is(ingestErr, errKilled) {
			t.Fatalf("kill at %d: ingest returned %v, want the injected crash", killAt, ingestErr)
		}
		// The dying process manages a last partial write: a torn line that
		// recovery must discard via the sink-offset truncation.
		bw.Flush()
		if _, err := f.WriteString("10.9.9.9 - - [torn mid-li"); err != nil {
			t.Fatal(err)
		}
		return false
	}
	if ingestErr != nil {
		t.Fatal(ingestErr)
	}
	if err := session.WriteAll(bw, st.Flush()); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return true
}

func TestCrashRecoveryEquivalence(t *testing.T) {
	corpora := map[string]func(*testing.T) corpus{
		"golden": goldenCorpus,
		"simgen": simgenCorpus,
	}
	for name, load := range corpora {
		t.Run(name, func(t *testing.T) {
			c := load(t)
			want := referenceRun(t, c)

			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				sinkPath := filepath.Join(dir, "sessions.txt")
				ckptPath := filepath.Join(dir, "state.ckpt")
				// Every 5th checkpoint-file write fails and every 7th is torn:
				// saves keep failing throughout the run, and recovery must
				// shrug it off because the atomic rename keeps the previous
				// checkpoint intact.
				fsys := &faultio.FS{
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

				// Sorted random kill points: each crash happens strictly
				// later in the log than the last checkpoint, so the run makes
				// progress.
				kills := make([]int64, 4)
				for i := range kills {
					kills[i] = 1 + rng.Int63n(int64(len(c.log))-1)
				}
				sort.Slice(kills, func(i, j int) bool { return kills[i] < kills[j] })

				for _, killAt := range kills {
					if attempt(t, c, sinkPath, ckptPath, fsys, killAt) {
						t.Fatalf("seed %d: attempt with kill at %d ran to completion", seed, killAt)
					}
				}
				if !attempt(t, c, sinkPath, ckptPath, fsys, -1) {
					t.Fatalf("seed %d: final attempt did not complete", seed)
				}

				got, err := os.ReadFile(sinkPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: recovered session file differs from uninterrupted run (%d vs %d bytes)",
						seed, len(got), len(want))
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
	sinkPath := filepath.Join(dir, "sessions.txt")
	ckptPath := filepath.Join(dir, "state.ckpt")

	if attempt(t, c, sinkPath, ckptPath, checkpoint.OS, int64(len(c.log)*2/3)) {
		t.Fatal("kill attempt ran to completion")
	}
	data, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatalf("no checkpoint written before the crash: %v", err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(ckptPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if ck, reason, err := checkpoint.Resume(checkpoint.OS, ckptPath); ck != nil || reason == "" || err != nil {
		t.Fatalf("Resume on corrupt checkpoint = (%v, %q, %v), want detected corruption", ck, reason, err)
	}
	if !attempt(t, c, sinkPath, ckptPath, checkpoint.OS, -1) {
		t.Fatal("full-replay attempt did not complete")
	}
	got, err := os.ReadFile(sinkPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("full-replay fallback diverges from uninterrupted run")
	}
}
