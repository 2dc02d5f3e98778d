package clf

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTestFile(t *testing.T, dir, name, data string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeGzipFile(t *testing.T, dir, name, data string) string {
	t.Helper()
	return writeTestFile(t, dir, name, string(gzipBytes(t, data, gzip.DefaultCompression)))
}

// rotatedSet writes a synthetic log as a 3-file rotated set — first part
// without its trailing newline (a rotation can cut anywhere), middle part
// gzip-compressed — and returns the paths plus the full concatenated text.
func rotatedSet(t *testing.T, seed int64, lines int) (paths []string, full string) {
	t.Helper()
	log := synthLog(seed, lines)
	split := strings.SplitAfter(log, "\n")
	a, b := len(split)/3, 2*len(split)/3
	p1 := strings.TrimSuffix(strings.Join(split[:a], ""), "\n")
	p2 := strings.Join(split[a:b], "")
	p3 := strings.Join(split[b:], "")
	dir := t.TempDir()
	paths = []string{
		writeTestFile(t, dir, "access.log.1", p1),
		writeGzipFile(t, dir, "access.log.2.gz", p2),
		writeTestFile(t, dir, "access.log.3", p3),
	}
	return paths, p1 + "\n" + p2 + p3
}

func TestResolveLogPaths(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"access.log", "access.log.1", "access.log.2.gz"} {
		writeTestFile(t, dir, name, "x\n")
	}
	got, err := ResolveLogPaths(filepath.Join(dir, "access.log*"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, "access.log"),
		filepath.Join(dir, "access.log.1"),
		filepath.Join(dir, "access.log.2.gz"),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("glob: got %v, want %v", got, want)
	}

	// Comma lists resolve, dedupe, and sort lexically.
	spec := want[1] + "," + want[0] + "," + want[1]
	got, err = ResolveLogPaths(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("comma list: got %v", got)
	}

	if _, err := ResolveLogPaths(filepath.Join(dir, "nothing*")); err == nil {
		t.Fatal("want error for glob with no matches")
	}
	if _, err := ResolveLogPaths("-," + want[0]); err == nil {
		t.Fatal("want error mixing stdin with files")
	}
	if got, err := ResolveLogPaths("-"); got != nil || err != nil {
		t.Fatalf("stdin: got %v, %v; want nil paths", got, err)
	}
}

// TestStreamFilesMatchesConcat is the multi-file equivalence bar: a rotated
// plain/gzip/plain set streams byte-identically to zcat-then-concatenate
// through the sequential reader, across chunk sizes, and ReadLog collects
// the same records from the set and from its text on stdin.
func TestStreamFilesMatchesConcat(t *testing.T) {
	paths, full := rotatedSet(t, 11, 600)
	want, wantBad, err := ReadAll(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got []Record, bad int, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bad != wantBad || len(got) != len(want) {
			t.Fatalf("%s: %d/%d records, want %d/%d", name, len(got), bad, len(want), wantBad)
		}
		for i := range got {
			if !recordsMatch(got[i], want[i]) {
				t.Fatalf("%s: record %d differs", name, i)
			}
		}
	}

	for _, chunk := range []int{256, 4096, readChunkSize} {
		var got []Record
		bad, err := StreamFilesChunked(paths, StreamConfig{ChunkBytes: chunk},
			func(recs []Record) { got = append(got, recs...) }, nil)
		check(fmt.Sprintf("chunk=%d", chunk), got, bad, err)
	}
	got, bad, err := ReadLog(paths, nil)
	check("ReadLog(files)", got, bad, err)
	got, bad, err = ReadLog(nil, strings.NewReader(full))
	check("ReadLog(stdin)", got, bad, err)
}

// TestStreamFilesResume: every progress-reported FilePos is a valid resume
// point — restarting there (including mid-gzip, which decodes and discards
// to the offset) replays exactly the unseen suffix.
func TestStreamFilesResume(t *testing.T) {
	paths, full := rotatedSet(t, 23, 400)
	want, _, err := ReadAll(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}

	type mark struct {
		pos  FilePos
		seen int
	}
	var marks []mark
	var count int
	_, err = StreamFilesChunked(paths, StreamConfig{ChunkBytes: 512},
		func(recs []Record) { count += len(recs) },
		func(pos FilePos) error {
			marks = append(marks, mark{pos, count})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(want) || len(marks) < 10 {
		t.Fatalf("collection run: %d records (%d marks), want %d", count, len(marks), len(want))
	}

	for i, m := range marks {
		if i%5 != 0 {
			continue
		}
		var got []Record
		_, err := StreamFilesChunked(paths, StreamConfig{ChunkBytes: 512, Start: m.pos},
			func(recs []Record) { got = append(got, recs...) }, nil)
		if err != nil {
			t.Fatalf("resume at %+v: %v", m.pos, err)
		}
		rest := want[m.seen:]
		if len(got) != len(rest) {
			t.Fatalf("resume at %+v: %d records, want %d", m.pos, len(got), len(rest))
		}
		for j := range got {
			if !recordsMatch(got[j], rest[j]) {
				t.Fatalf("resume at %+v: record %d differs", m.pos, j)
			}
		}
	}
}

// TestStreamFilesProgressAbort: a progress error stops the stream cleanly —
// the error comes back, emission halts at the rejected boundary, and every
// source (including the gzip decoder goroutines) is closed without leaking
// or crashing.
func TestStreamFilesProgressAbort(t *testing.T) {
	paths, _ := rotatedSet(t, 31, 400)
	errStop := errors.New("stop here")
	var emitted, boundaries, atAbort int
	_, err := StreamFilesChunked(paths, StreamConfig{ChunkBytes: 512},
		func(recs []Record) { emitted += len(recs) },
		func(FilePos) error {
			boundaries++
			if boundaries == 7 {
				atAbort = emitted
				return errStop
			}
			return nil
		})
	if !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want errStop", err)
	}
	if boundaries != 7 {
		t.Fatalf("progress kept firing after abort (%d calls)", boundaries)
	}
	if emitted != atAbort {
		t.Fatalf("%d records emitted after abort", emitted-atAbort)
	}
}

// TestStreamFilesOversizedLine: the skip-and-count policy holds on a plain
// file and on a gzip member.
func TestStreamFilesOversizedLine(t *testing.T) {
	body := sampleLine + "\n" + strings.Repeat("z", maxLineBytes+2) + "\n" + sampleLine + "\n"
	dir := t.TempDir()
	cases := map[string]string{
		"plain": writeTestFile(t, dir, "plain.log", body),
		"gzip":  writeGzipFile(t, dir, "compressed.log.gz", body),
	}
	// At the smaller chunk sizes the line spans many blocks, and on the gzip
	// source wraps its decode ring many times over.
	for name, path := range cases {
		for _, chunk := range []int{512, 64 << 10, readChunkSize} {
			var recs int
			bad, err := StreamFilesChunked([]string{path}, StreamConfig{ChunkBytes: chunk},
				func(c []Record) { recs += len(c) }, nil)
			if err != nil {
				t.Fatalf("%s chunk=%d: %v", name, chunk, err)
			}
			if recs != 2 || bad != 1 {
				t.Fatalf("%s chunk=%d: %d records / %d malformed, want 2/1", name, chunk, recs, bad)
			}
		}
	}
}

// TestPlainFileTruncatedWhileStreaming: a plain log truncated while it is
// being read — logrotate's copytruncate under a running sessionize, serve's
// recovery replay or -backfill — ends the stream cleanly or with a read
// error, never with a fault, and no record beyond what the file held is
// emitted. A source that mapped the file took SIGBUS here, on the first
// page past the new end.
func TestPlainFileTruncatedWhileStreaming(t *testing.T) {
	block := synthLog(89, 10_000)
	perBlock, _, err := ReadAll(strings.NewReader(block))
	if err != nil {
		t.Fatal(err)
	}
	const copies = 16
	text := strings.Repeat(block, copies)
	if len(text) < 10<<20 {
		t.Fatalf("log is %d bytes, want at least 10 MiB", len(text))
	}
	held := copies * len(perBlock)
	path := writeTestFile(t, t.TempDir(), "access.log", text)
	var emitted, chunks int
	_, err = StreamFilesChunked([]string{path}, StreamConfig{ChunkBytes: 64 << 10}, func(recs []Record) {
		if chunks++; chunks == 1 {
			if err := os.Truncate(path, 0); err != nil {
				t.Error(err)
			}
		}
		emitted += len(recs)
	}, nil)
	if err != nil && !strings.HasPrefix(err.Error(), "clf: read:") {
		t.Fatalf("err = %v, want nil or a read error", err)
	}
	if emitted > held {
		t.Fatalf("%d records emitted, the file held %d", emitted, held)
	}
	if emitted == held {
		t.Fatalf("all %d records emitted: the file was read to its end before it was truncated", held)
	}
	t.Logf("%d of %d records emitted, %d chunks, err %v", emitted, held, chunks, err)
}

// TestOpenDecodedSniffsGzip: decoding is by magic bytes, not extension.
func TestOpenDecodedSniffsGzip(t *testing.T) {
	dir := t.TempDir()
	path := writeGzipFile(t, dir, "misnamed.log", "hello\nworld\n")
	rc, err := OpenDecoded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello\nworld\n" {
		t.Fatalf("decoded %q", data)
	}
}

// TestSourceKinds: openSourceAt decodes a file by its magic bytes, not its
// name — a gzip member named like a plain log gets a decoder, a plain log
// named like a gzip member is read as it is.
func TestSourceKinds(t *testing.T) {
	dir := t.TempDir()
	for path, gz := range map[string]bool{
		writeGzipFile(t, dir, "a.log", sampleLine+"\n"):    true,
		writeTestFile(t, dir, "a.log.gz", sampleLine+"\n"): false,
	} {
		s, err := openSourceAt(path, 0, readChunkSize)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.(*readerSource).dec != nil; got != gz {
			t.Errorf("%s: decoded %v, want %v", filepath.Base(path), got, gz)
		}
		chunk, _, _, err := s.NextChunk(readChunkSize)
		if err != nil || string(chunk) != sampleLine+"\n" {
			t.Errorf("%s: first chunk %q, %v", filepath.Base(path), chunk, err)
		}
		s.Close()
	}
}
