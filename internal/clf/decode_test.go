package clf

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// gzipBytes compresses data as one gzip member at the given level.
func gzipBytes(t testing.TB, data string, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(gz, data); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inlineMember is the reference reading of one member of a set: the file
// decoded inline through OpenDecoded and parsed line by line by the Scanner,
// on the calling goroutine.
type inlineMember struct {
	recs   []Record
	bad    int
	err    error         // the Scanner's read error, if the member is damaged
	seenAt map[int64]int // decoded line-end offset → records the Scanner has produced by then
}

// readInline reads path the reference way. text is the member's decoded
// content, for the line-end table.
func readInline(t *testing.T, path, text string) inlineMember {
	t.Helper()
	rc, err := OpenDecoded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	sc := NewScanner(rc)
	m := inlineMember{seenAt: map[int64]int{0: 0}}
	atLine := map[int]int{} // 1-based line number → records up to and including it
	for sc.Scan() {
		m.recs = append(m.recs, sc.Record())
		atLine[sc.LinesRead()] = len(m.recs)
	}
	m.bad, _ = sc.Malformed()
	m.err = sc.Err()
	seen, off := 0, 0
	for n, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			break
		}
		if c, ok := atLine[n+1]; ok {
			seen = c
		}
		off += len(line)
		m.seenAt[int64(off)] = seen
	}
	return m
}

// mixedSet writes a rotated set that alternates gzip and plain members,
// with unterminated final lines on one member of each kind, and returns the
// paths and each member's decoded text.
func mixedSet(t *testing.T, seed int64, lines int) (paths, texts []string) {
	t.Helper()
	split := strings.SplitAfter(synthLog(seed, lines), "\n")
	dir := t.TempDir()
	const members = 5
	for m := 0; m < members; m++ {
		text := strings.Join(split[m*len(split)/members:(m+1)*len(split)/members], "")
		if m < 2 {
			text = strings.TrimSuffix(text, "\n")
		}
		if m%2 == 0 {
			paths = append(paths, writeGzipFile(t, dir, fmt.Sprintf("access.%d.gz", m), text))
		} else {
			paths = append(paths, writeTestFile(t, dir, fmt.Sprintf("access.%d", m), text))
		}
		texts = append(texts, text)
	}
	return paths, texts
}

func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !recordsMatch(got[i], want[i]) {
			t.Fatalf("%s: record %d differs:\n%+v\n%+v", what, i, got[i], want[i])
		}
	}
}

// TestStreamFilesMatchesInline holds StreamFilesChunked — gzip members
// decoding on their own goroutines into the ring, beside plain members read
// inline — to the inline reference: same records and
// malformed count, every progress position on a line end with exactly the
// reference's records delivered by then, and a resume from such a position
// replaying exactly the rest.
func TestStreamFilesMatchesInline(t *testing.T) {
	paths, texts := mixedSet(t, 41, 1500)
	var want []Record
	var wantBad int
	var members []inlineMember
	base := make([]int, len(paths)) // records before each member
	for i, path := range paths {
		m := readInline(t, path, texts[i])
		if m.err != nil {
			t.Fatal(m.err)
		}
		base[i] = len(want)
		want = append(want, m.recs...)
		wantBad += m.bad
		members = append(members, m)
	}

	type mark struct {
		pos  FilePos
		seen int
	}
	for _, chunk := range []int{512, 4096, 64 << 10, 1 << 20} {
		cfg := StreamConfig{ChunkBytes: chunk}
		var got []Record
		var marks []mark
		bad, err := StreamFilesChunked(paths, cfg,
			func(recs []Record) { got = append(got, recs...) },
			func(pos FilePos) error {
				marks = append(marks, mark{pos, len(got)})
				return nil
			})
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if bad != wantBad {
			t.Fatalf("%+v: malformed %d, want %d", cfg, bad, wantBad)
		}
		sameRecords(t, "full run", got, want)

		last := FilePos{}
		ends := make(map[int]int64)
		for _, m := range marks {
			if m.pos.File < last.File || (m.pos.File == last.File && m.pos.Offset < last.Offset) {
				t.Fatalf("%+v: position %+v after %+v", cfg, m.pos, last)
			}
			last = m.pos
			ends[m.pos.File] = m.pos.Offset
			seen, ok := members[m.pos.File].seenAt[m.pos.Offset]
			if !ok {
				t.Fatalf("%+v: position %+v is not a line end", cfg, m.pos)
			}
			if base[m.pos.File]+seen != m.seen {
				t.Fatalf("%+v: %d records delivered at %+v, inline reader has %d", cfg, m.seen, m.pos, base[m.pos.File]+seen)
			}
		}
		for i, text := range texts {
			if ends[i] != int64(len(text)) {
				t.Fatalf("%+v: member %d ends at %d, want %d", cfg, i, ends[i], len(text))
			}
		}

		// Resume from about eight of the positions.
		for k := 0; k < len(marks); k += len(marks)/8 + 1 {
			m := marks[k]
			var rest strings.Builder // what an inline reader sees from m.pos on
			rest.WriteString(texts[m.pos.File][m.pos.Offset:])
			for _, text := range texts[m.pos.File+1:] {
				rest.WriteString("\n" + text)
			}
			_, restBad, err := ReadAll(strings.NewReader(rest.String()))
			if err != nil {
				t.Fatal(err)
			}
			rcfg := cfg
			rcfg.Start = m.pos
			var again []Record
			bad, err := StreamFilesChunked(paths, rcfg, func(recs []Record) { again = append(again, recs...) }, nil)
			if err != nil {
				t.Fatalf("%+v: %v", rcfg, err)
			}
			if bad != restBad {
				t.Fatalf("%+v: malformed %d, want %d", rcfg, bad, restBad)
			}
			sameRecords(t, "resumed run", again, want[m.seen:])
		}
	}
}

// TestStreamFilesDamagedGzip: a member cut off mid-stream and one whose
// trailer fails its checksum end the stream with the inline reader's error,
// after the inline reader's records. Nothing of the file after it is
// delivered.
func TestStreamFilesDamagedGzip(t *testing.T) {
	text := synthLog(43, 800)
	whole := gzipBytes(t, text, gzip.DefaultCompression)
	cut := whole[:2*len(whole)/3]
	flipped := bytes.Clone(whole)
	flipped[len(flipped)-6] ^= 0xff // inside the CRC-32
	for name, damaged := range map[string][]byte{"truncated": cut, "checksum": flipped} {
		dir := t.TempDir()
		paths := []string{
			writeTestFile(t, dir, "access.0", synthLog(44, 100)),
			writeTestFile(t, dir, "access.1.gz", string(damaged)),
			writeTestFile(t, dir, "access.2", synthLog(45, 100)),
		}
		first := readInline(t, paths[0], "")
		ref := readInline(t, paths[1], "")
		if ref.err == nil {
			t.Fatalf("%s: the inline reader accepts the damaged member", name)
		}
		want := append(first.recs, ref.recs...)
		for _, chunk := range []int{512, 4096, 1 << 20} {
			var got []Record
			bad, err := StreamFilesChunked(paths, StreamConfig{ChunkBytes: chunk},
				func(recs []Record) { got = append(got, recs...) }, nil)
			if !errors.Is(err, ref.err) {
				t.Fatalf("%s chunk=%d: err = %v, inline reader: %v", name, chunk, err, ref.err)
			}
			if bad != first.bad+ref.bad {
				t.Fatalf("%s chunk=%d: malformed %d, want %d", name, chunk, bad, first.bad+ref.bad)
			}
			sameRecords(t, name, got, want)
		}
	}
}

// settle waits for the goroutine count to come back down to want: a closed
// decoder's goroutine has been waited for, but may not have left the
// runtime's count yet.
func settle(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDecoderLeavesNoGoroutine: closing a gzip source early — before its
// first chunk, mid-member with the ring full, after the end — and aborting a
// stream from progress mid-member all end every decoder.
func TestDecoderLeavesNoGoroutine(t *testing.T) {
	dir := t.TempDir()
	text := synthLog(47, 3000)
	var paths []string
	for _, name := range []string{"a.gz", "b.gz", "c.gz", "d.gz"} {
		paths = append(paths, writeGzipFile(t, dir, name, text))
	}
	before := runtime.NumGoroutine()

	for _, chunks := range []int{0, 2, -1} {
		src, err := openSourceAt(paths[0], 0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n != chunks; n++ {
			if _, _, _, err := src.NextChunk(1024); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				break
			}
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		settle(t, "early Close", before)
	}

	errStop := errors.New("stop")
	calls := 0
	_, err := StreamFilesChunked(paths, StreamConfig{ChunkBytes: 1024}, func([]Record) {},
		func(FilePos) error {
			if calls++; calls == 5 {
				return errStop
			}
			return nil
		})
	if err != errStop {
		t.Fatalf("err = %v", err)
	}
	settle(t, "progress abort", before)
}

// TestGzipSourceSteadyStateAllocs: what a gzip source allocates — reader,
// ring, carry — does not grow with the member: eight times the decoded
// length through the same ring takes no more allocations.
func TestGzipSourceSteadyStateAllocs(t *testing.T) {
	const chunk = 32 << 10
	dir := t.TempDir()
	drain := func(lines int) (mallocs uint64, blocks int) {
		// Stored blocks: compress/flate allocates Huffman link tables per
		// compressed block, which would count the library, not the source.
		path := writeTestFile(t, dir, "member.gz", string(gzipBytes(t, synthLog(53, lines), gzip.NoCompression)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		src, err := openSourceAt(path, 0, chunk)
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, _, _, err := src.NextChunk(chunk)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			blocks++
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, blocks
	}
	short, shortBlocks := drain(10_000)
	long, longBlocks := drain(80_000)
	if shortBlocks < 4*ringDepth || longBlocks < 6*shortBlocks {
		t.Fatalf("members too short to cycle the ring: %d and %d chunks", shortBlocks, longBlocks)
	}
	t.Logf("%d chunks: %d allocations; %d chunks: %d", shortBlocks, short, longBlocks, long)
	// A count, not bytes, so no tolerance is tuned to a machine: the short
	// member may get by on two buffers where the long one takes its third,
	// and the runtime adds a few of its own; one allocation per ten extra
	// blocks is far above both and far below anything made per block.
	if extra := longBlocks - shortBlocks; long > short+uint64(extra/10) {
		t.Errorf("allocations grow with member length: %d for %d chunks, %d for %d", short, shortBlocks, long, longBlocks)
	}
}
