package clf

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// posMark is one progress report and how many records had been emitted by
// then.
type posMark struct {
	Pos  FilePos
	Seen int
}

// inlineRun is what one pass over a file set produced.
type inlineRun struct {
	recs  []Record
	bad   int
	marks []posMark
	err   error
}

// inlineSources is the loop streamSources ran before it had a parser
// goroutine — source → parse → emit → progress on one goroutine, one scratch
// slice — kept as the reference for what it must still emit and where it must
// report: chunk boundaries and positions are the source's, so they may not
// move because parsing does.
func inlineSources(n, first int, open func(int) (Source, error), chunkBytes int) (run inlineRun) {
	scratch := make([]Record, 0, 64)
	in := newInternTable()
	for i := first; i < n; i++ {
		src, err := open(i)
		if err != nil {
			run.err = err
			return run
		}
		for {
			data, end, skipped, nerr := src.NextChunk(chunkBytes)
			if nerr != nil {
				cerr := src.Close()
				if nerr != io.EOF {
					run.err = nerr
					return run
				}
				if cerr != nil {
					run.err = cerr
					return run
				}
				break
			}
			var bad int
			scratch, bad = parseChunkIntern(data, scratch[:0], in)
			run.bad += skipped + bad
			run.recs = append(run.recs, scratch...)
			run.marks = append(run.marks, posMark{FilePos{File: i, Offset: end}, len(run.recs)})
		}
	}
	return run
}

// aheadSources is the same pass through the engine under test.
func aheadSources(n, first int, open func(int) (Source, error), chunkBytes int) (run inlineRun) {
	run.bad, run.err = streamSources(n, first, open, StreamConfig{ChunkBytes: chunkBytes}, copyRecord,
		func(recs []Record) { run.recs = append(run.recs, recs...) },
		func(pos FilePos) error {
			run.marks = append(run.marks, posMark{pos, len(run.recs)})
			return nil
		})
	return run
}

// opener opens the members of a file set the way StreamFilesChunked does.
func opener(paths []string, cfg StreamConfig) func(int) (Source, error) {
	return func(i int) (Source, error) {
		var off int64
		if i == cfg.Start.File {
			off = cfg.Start.Offset
		}
		return openSourceAt(paths[i], off, cfg.ChunkBytes)
	}
}

func inlineStream(paths []string, cfg StreamConfig) inlineRun {
	return inlineSources(len(paths), cfg.Start.File, opener(paths, cfg), cfg.ChunkBytes)
}

// aheadStream goes through the exported call, as core does.
func aheadStream(paths []string, cfg StreamConfig) (run inlineRun) {
	run.bad, run.err = StreamFilesChunked(paths, cfg,
		func(recs []Record) { run.recs = append(run.recs, recs...) },
		func(pos FilePos) error {
			run.marks = append(run.marks, posMark{pos, len(run.recs)})
			return nil
		})
	return run
}

// TestParseAheadMatchesInline: with parsing on a goroutine of its own the
// stream emits ReadAll's records and malformed count and reports
// exactly the inline loop's positions — every one of them, for chunks from
// one line to the whole member, over gzip and plain members — and a
// run resumed from any reported position emits the rest and reports the rest
// of the positions. (CI runs this under -cpu 1,2,4: the handoff must not
// depend on how the two goroutines are scheduled.)
func TestParseAheadMatchesInline(t *testing.T) {
	paths, _ := mixedSet(t, 61, 240)
	var want []Record
	wantBad := 0
	for _, path := range paths {
		rc, err := OpenDecoded(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, bad, err := ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, recs...)
		wantBad += bad
	}
	for _, chunk := range []int{64, 200, 4096, 64 << 10, 1 << 20} {
		cfg := StreamConfig{ChunkBytes: chunk}
		ref, got := inlineStream(paths, cfg), aheadStream(paths, cfg)
		if ref.err != nil || got.err != nil {
			t.Fatalf("%+v: inline err %v, ahead err %v", cfg, ref.err, got.err)
		}
		if got.bad != wantBad || ref.bad != wantBad {
			t.Fatalf("%+v: malformed %d (inline %d), ReadAll has %d", cfg, got.bad, ref.bad, wantBad)
		}
		sameRecords(t, "full run", got.recs, want)
		if !reflect.DeepEqual(got.marks, ref.marks) {
			t.Fatalf("%+v: positions differ from the inline loop's:\n%v\n%v", cfg, got.marks, ref.marks)
		}
		// Resumed, a member cuts its blocks from the new start, so the
		// reference is the inline loop resumed there too.
		for _, m := range ref.marks {
			rcfg := cfg
			rcfg.Start = m.Pos
			rref, again := inlineStream(paths, rcfg), aheadStream(paths, rcfg)
			if rref.err != nil || again.err != nil || again.bad != rref.bad {
				t.Fatalf("%+v: inline %d malformed, err %v; ahead %d, err %v", rcfg, rref.bad, rref.err, again.bad, again.err)
			}
			sameRecords(t, "resumed run", again.recs, want[m.Seen:])
			if !reflect.DeepEqual(again.marks, rref.marks) {
				t.Fatalf("%+v: positions differ from the inline loop's:\n%v\n%v", rcfg, again.marks, rref.marks)
			}
		}
	}
}

// TestLentRecordsArePoisoned pins the test-only overwrite itself: the slices
// a consumer was lent hold nothing but sentinels once the stream is over
// (while it runs they are being refilled), so a consumer that kept one — in
// any test of the module — compares garbage, not records that happen to be
// right.
func TestLentRecordsArePoisoned(t *testing.T) {
	if !poisonLent {
		t.Fatal("poisonLent is off in a test binary")
	}
	log := synthLog(67, 600)
	var kept [][]Record
	_, err := StreamChunked(strings.NewReader(log), StreamConfig{ChunkBytes: 4096}, func(recs []Record) { kept = append(kept, recs) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) < 4 {
		t.Fatalf("only %d chunks", len(kept))
	}
	for _, recs := range kept {
		for _, r := range recs {
			if r.Host != "\x00lent" {
				t.Fatalf("a lent slice still holds %+v", r)
			}
		}
	}
}

// lentHost is a staged element that names its own sentinel.
type lentHost struct{ host string }

func (lentHost) Lent() lentHost { return lentHost{"\x00lent"} }

// TestLentStagedSlicesArePoisoned: a staged stream's lent slices are
// overwritten too, whatever the element type — with the type's own Lent
// sentinel where it has one, with the zero value where it has none.
func TestLentStagedSlicesArePoisoned(t *testing.T) {
	log := synthLog(67, 600)
	cfg := StreamConfig{ChunkBytes: 4096}
	var named [][]lentHost
	if _, err := StreamStaged(strings.NewReader(log), cfg, func(r *Record) lentHost { return lentHost{r.Host} },
		func(hosts []lentHost) { named = append(named, hosts) }, nil); err != nil {
		t.Fatal(err)
	}
	var plain [][]int64
	if _, err := StreamStaged(strings.NewReader(log), cfg, func(r *Record) int64 { return int64(len(r.Host)) },
		func(sizes []int64) { plain = append(plain, sizes) }, nil); err != nil {
		t.Fatal(err)
	}
	if len(named) < 4 || len(plain) != len(named) {
		t.Fatalf("%d and %d chunks", len(named), len(plain))
	}
	for i := range named {
		for _, h := range named[i] {
			if h.host != "\x00lent" {
				t.Fatalf("a lent slice still holds %+v", h)
			}
		}
		for _, n := range plain[i] {
			if n != 0 {
				t.Fatalf("a lent slice still holds %d", n)
			}
		}
	}
}

// TestParserLeavesNoGoroutine: however a stream ends — end
// of input, a read error, a truncated gzip member, a later file that does
// not open, progress saying stop — the parser goroutine (and any decoder
// behind it) is gone when the call returns, for plain, gzip and
// borrowed-reader sources.
func TestParserLeavesNoGoroutine(t *testing.T) {
	dir := t.TempDir()
	text := synthLog(71, 1200)
	plain := []string{writeTestFile(t, dir, "a.log", text), writeTestFile(t, dir, "b.log", text)}
	packed := []string{writeGzipFile(t, dir, "a.gz", text), writeGzipFile(t, dir, "b.gz", text)}
	whole := gzipBytes(t, text, gzip.DefaultCompression)
	cut := writeTestFile(t, dir, "cut.gz", string(whole[:len(whole)/2]))
	missing := filepath.Join(dir, "missing.log")
	errStop := errors.New("stop")
	stopAt := func(n int) func(FilePos) error {
		return func(FilePos) error {
			if n--; n == 0 {
				return errStop
			}
			return nil
		}
	}
	before := runtime.NumGoroutine()

	files := []struct {
		name     string
		paths    []string
		progress func(FilePos) error
		check    func(error) bool
	}{
		{"plain to the end", plain, nil, func(err error) bool { return err == nil }},
		{"gzip to the end", packed, nil, func(err error) bool { return err == nil }},
		{"plain then missing file", []string{plain[0], missing}, nil, func(err error) bool { return errors.Is(err, os.ErrNotExist) }},
		{"gzip then missing file", []string{packed[0], missing}, nil, func(err error) bool { return errors.Is(err, os.ErrNotExist) }},
		{"truncated gzip member", []string{packed[0], cut, plain[0]}, nil, func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"plain abort", plain, stopAt(3), func(err error) bool { return err == errStop }},
		{"gzip abort", packed, stopAt(3), func(err error) bool { return err == errStop }},
		{"abort at a member's last chunk", packed, stopAt(1), func(err error) bool { return err == errStop }},
	}
	for _, tc := range files {
		chunk := 2048
		if strings.Contains(tc.name, "last chunk") {
			chunk = 1 << 20
		}
		_, err := StreamFilesChunked(tc.paths, StreamConfig{ChunkBytes: chunk}, func([]Record) {}, tc.progress)
		if !tc.check(err) {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		settle(t, tc.name, before)
	}

	// A reader the caller lent: nothing to close, the goroutine still ends.
	if _, err := StreamChunked(strings.NewReader(text), StreamConfig{ChunkBytes: 2048}, func([]Record) {}, func(FilePos) error { return nil }); err != nil {
		t.Fatal(err)
	}
	settle(t, "borrowed reader to the end", before)
	if _, err := StreamChunked(&chunkFailReader{data: []byte(text)}, StreamConfig{ChunkBytes: 2048}, func([]Record) {}, nil); err == nil {
		t.Fatal("borrowed reader: the read error is lost")
	}
	settle(t, "borrowed reader, read error", before)
	src := newReaderSource(strings.NewReader(text), 0)
	if _, err := streamSources(1, 0, func(int) (Source, error) { return src, nil }, StreamConfig{ChunkBytes: 2048}, copyRecord, func([]Record) {}, stopAt(3)); err != errStop {
		t.Fatalf("borrowed reader abort: err = %v", err)
	}
	settle(t, "borrowed reader abort", before)
}

// countingSource is a reader source over bytes in memory that tells how far
// ahead of the emitting side it has been read, and whether it was closed.
type countingSource struct {
	*readerSource
	calls  atomic.Int32
	closed atomic.Bool
}

func (s *countingSource) NextChunk(n int) ([]byte, int64, int, error) {
	s.calls.Add(1)
	return s.readerSource.NextChunk(n)
}

func (s *countingSource) Close() error {
	s.closed.Store(true)
	return s.readerSource.Close()
}

// TestAbortDropsChunksParsedAhead: when progress rejects chunk k, chunks
// k+1 and k+2 have long been parsed and are waiting in the ring — the abort
// holds until they are — and still nothing after chunk k is emitted or
// counted, the source is closed and the parser is gone.
func TestAbortDropsChunksParsedAhead(t *testing.T) {
	const chunk, k = 1024, 4
	text := synthLog(73, 900)
	ref := inlineRun{}
	{
		src := memSource(text)
		for {
			data, _, _, err := src.NextChunk(chunk)
			if err != nil {
				break
			}
			recs, bad := parseChunkIntern(data, nil, newInternTable())
			ref.bad += bad
			ref.recs = append(ref.recs, recs...)
			ref.marks = append(ref.marks, posMark{Seen: len(ref.recs)})
			if len(ref.marks) == k {
				break
			}
		}
	}
	before := runtime.NumGoroutine()
	errStop := errors.New("stop")
	src := &countingSource{readerSource: memSource(text)}
	var got []Record
	reports := 0
	bad, err := streamSources(1, 0, func(int) (Source, error) { return src, nil }, StreamConfig{ChunkBytes: chunk}, copyRecord,
		func(recs []Record) { got = append(got, recs...) },
		func(FilePos) error {
			if reports++; reports < k {
				return nil
			}
			// The parser asks for chunk k+3 only after k+1 and k+2 are parsed
			// and handed over.
			for deadline := time.Now().Add(5 * time.Second); src.calls.Load() < k+3; {
				if time.Now().After(deadline) {
					t.Errorf("the parser is only at chunk %d while chunk %d is emitted", src.calls.Load(), k)
					break
				}
				time.Sleep(time.Millisecond)
			}
			return errStop
		})
	if err != errStop {
		t.Fatalf("err = %v", err)
	}
	if reports != k {
		t.Fatalf("progress ran %d times, want %d", reports, k)
	}
	if bad != ref.bad {
		t.Fatalf("malformed %d, want chunk 1..%d's %d", bad, k, ref.bad)
	}
	sameRecords(t, "up to the abort", got, ref.recs)
	if !src.closed.Load() {
		t.Fatal("the source is still open after the abort")
	}
	settle(t, "abort with chunks parsed ahead", before)
}

// TestParseCountersSaySideThatWaited: one chunk counter tick per chunk, the
// parser's stall grows when the emitting side is the slow one, the emitting
// side's wait when the source is.
func TestParseCountersSaySideThatWaited(t *testing.T) {
	text := synthLog(79, 400)
	run := func(src Source, emit func([]Record)) (chunks, wait, stall int64) {
		c0, w0, s0 := metricParseChunks.Value(), metricParseWait.Value(), metricParseStall.Value()
		if _, err := streamSources(1, 0, func(int) (Source, error) { return src, nil }, StreamConfig{ChunkBytes: 2048}, copyRecord, emit, nil); err != nil {
			t.Fatal(err)
		}
		return metricParseChunks.Value() - c0, metricParseWait.Value() - w0, metricParseStall.Value() - s0
	}
	want := countChunks(text, 2048)

	chunks, _, stall := run(memSource(text), func([]Record) { time.Sleep(2 * time.Millisecond) })
	if chunks != want {
		t.Fatalf("clf.parse.chunks moved by %d over %d chunks", chunks, want)
	}
	if min := (want - ringDepth - 1) * int64(time.Millisecond); stall < min {
		t.Errorf("slow consumer: clf.parse.stall_ns moved by %d, want at least %d", stall, min)
	}

	slow := &slowSource{readerSource: memSource(text), delay: 2 * time.Millisecond}
	chunks, wait, _ := run(slow, func([]Record) {})
	if chunks != want {
		t.Fatalf("clf.parse.chunks moved by %d over %d chunks", chunks, want)
	}
	if min := (want - 1) * int64(time.Millisecond); wait < min {
		t.Errorf("slow source: clf.parse.wait_ns moved by %d, want at least %d", wait, min)
	}
}

// memSource is a reader source over text in memory, with nothing to close.
func memSource(text string) *readerSource {
	return newReaderSource(strings.NewReader(text), 0)
}

// countChunks says how many chunks a reader source cuts text into.
func countChunks(text string, chunk int) (n int64) {
	src := memSource(text)
	for {
		if _, _, _, err := src.NextChunk(chunk); err != nil {
			return n
		}
		n++
	}
}

// slowSource takes delay over every chunk.
type slowSource struct {
	*readerSource
	delay time.Duration
}

func (s *slowSource) NextChunk(n int) ([]byte, int64, int, error) {
	time.Sleep(s.delay)
	return s.readerSource.NextChunk(n)
}
