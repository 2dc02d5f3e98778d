package checkpoint_test

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/faultio"
	"smartsra/internal/session"
)

// The multi-file variant of the crash-recovery harness: the corpus is split
// into a rotated three-file set (the middle member gzip-compressed, the
// first missing its final newline), ingestion is killed at progress
// boundaries — including inside the gzip member, where the checkpoint
// offset counts decoded bytes — and every recovery must resume at the
// recorded (file, offset) position and end byte-identical to an
// uninterrupted single-stream run.

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

// attemptFiles is attempt for the multi-file path: recover from the
// checkpoint (validating its (file, path) anchor the way cmd/sessionize
// does), replay the set from the recorded position via IngestFiles,
// checkpoint every 3rd progress boundary through fsys, and — when
// killAfter >= 0 — crash by failing the progress callback at that boundary,
// leaving a torn tail on the session file.
func attemptFiles(t *testing.T, c corpus, paths []string, sinkPath, ckptPath string, fsys checkpoint.FS, killAfter int) bool {
	t.Helper()

	ck, _, err := checkpoint.Resume(fsys, ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewTail(c.config(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var start clf.FilePos
	var sinkLen int64
	if ck != nil {
		if ck.LogFile < 0 || ck.LogFile >= len(paths) {
			t.Fatalf("checkpoint file index %d outside the %d-file set", ck.LogFile, len(paths))
		}
		if ck.LogPath != paths[ck.LogFile] {
			t.Fatalf("checkpoint anchored to %q, set has %q at index %d", ck.LogPath, paths[ck.LogFile], ck.LogFile)
		}
		if err := st.Restore(ck.Tail); err != nil {
			t.Fatalf("restore: %v", err)
		}
		start = clf.FilePos{File: ck.LogFile, Offset: ck.LogOffset}
		sinkLen = ck.SinkOffset
	}

	f, err := os.OpenFile(sinkPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(sinkLen); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(sinkLen, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)

	boundaries := 0
	_, ingestErr := st.IngestFiles(paths, start, func(s []session.Session) {
		if err := session.WriteAll(bw, s); err != nil {
			t.Fatal(err)
		}
	}, func(pos clf.FilePos) error {
		boundaries++
		if killAfter >= 0 && boundaries >= killAfter {
			return errKilled
		}
		if boundaries%3 != 0 {
			return nil
		}
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
		checkpoint.Save(fsys, ckptPath, &checkpoint.Checkpoint{
			LogOffset:  pos.Offset,
			LogFile:    pos.File,
			LogPath:    paths[pos.File],
			SinkOffset: size,
			Tail:       st.Snapshot(),
		})
		return nil
	})

	if killAfter >= 0 && errors.Is(ingestErr, errKilled) {
		bw.Flush()
		if _, err := f.WriteString("10.9.9.9 - - [torn mid-li"); err != nil {
			t.Fatal(err)
		}
		return false
	}
	if ingestErr != nil {
		t.Fatal(ingestErr)
	}
	// A kill scheduled past the set's last boundary never fires and the pass
	// runs to completion — fine for a small resumed suffix; the caller just
	// stops crashing.
	if err := session.WriteAll(bw, st.Flush()); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return true
}

func TestCrashRecoveryMultiFile(t *testing.T) {
	corpora := map[string]func(*testing.T) corpus{
		"golden": goldenCorpus,
		"simgen": simgenCorpus,
	}
	for name, load := range corpora {
		t.Run(name, func(t *testing.T) {
			c := load(t)
			want := referenceRun(t, c)

			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				paths := rotateCorpus(t, c, dir)
				sinkPath := filepath.Join(dir, "sessions.txt")
				ckptPath := filepath.Join(dir, "state.ckpt")
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

				// Kill after a few boundaries per attempt; a checkpoint lands
				// every 3rd boundary, so attempts that get that far make
				// forward progress, and the final uninterrupted pass finishes
				// the set regardless.
				kills, killed := 4, 0
				for i := 0; i < kills; i++ {
					killAfter := 2 + rng.Intn(6)
					if !attemptFiles(t, c, paths, sinkPath, ckptPath, fsys, killAfter) {
						killed++
					}
				}
				if killed == 0 {
					t.Fatalf("seed %d: no attempt crashed — the harness never exercised recovery", seed)
				}
				if !attemptFiles(t, c, paths, sinkPath, ckptPath, fsys, -1) {
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
