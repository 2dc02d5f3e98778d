package clf

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// streamAll collects what StreamChunked emits, copying each lent slice out.
func streamAll(r io.Reader, cfg StreamConfig) (recs []Record, malformed int, err error) {
	malformed, err = StreamChunked(r, cfg, func(c []Record) { recs = append(recs, c...) }, nil)
	return recs, malformed, err
}

// TestStreamMatchesReadAll pins the stream to ReadAll at the default chunk
// size: same records in the same order, same malformed count.
func TestStreamMatchesReadAll(t *testing.T) {
	log := synthLog(21, 3000)
	want, wantBad, err := ReadAll(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	got, gotBad, err := streamAll(strings.NewReader(log), StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if gotBad != wantBad || len(got) != len(want) {
		t.Fatalf("got %d/%d, want %d/%d", len(got), gotBad, len(want), wantBad)
	}
	for i := range got {
		if !recordsMatch(got[i], want[i]) {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, got[i], want[i])
		}
	}
}

// TestStreamParallelMatchesReadAll pins the parser goroutine's pipeline to
// ReadAll, including small chunk sizes that force lines across chunk
// boundaries.
func TestStreamParallelMatchesReadAll(t *testing.T) {
	for _, seed := range []int64{4, 11} {
		log := synthLog(seed, 4000)
		want, wantBad, err := ReadAll(strings.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{64, 4096, readChunkSize} {
			got, gotBad, err := streamAll(strings.NewReader(log), StreamConfig{ChunkBytes: chunk})
			if err != nil {
				t.Fatal(err)
			}
			if gotBad != wantBad || len(got) != len(want) {
				t.Fatalf("seed=%d chunk=%d: got %d/%d, want %d/%d",
					seed, chunk, len(got), gotBad, len(want), wantBad)
			}
			for i := range got {
				if !recordsMatch(got[i], want[i]) {
					t.Fatalf("seed=%d chunk=%d: record %d differs:\n%+v\n%+v",
						seed, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamParallelPartialOnReadError mirrors the ReadAll contract: records
// delivered before a read error — here many chunks of them — are emitted, and
// the error is returned after them.
func TestStreamParallelPartialOnReadError(t *testing.T) {
	log := synthLog(9, 300)
	want, _, seqErr := ReadAll(&chunkFailReader{data: []byte(log)})
	got, _, parErr := streamAll(&chunkFailReader{data: []byte(log)}, StreamConfig{ChunkBytes: 512})
	if seqErr == nil || parErr == nil {
		t.Fatalf("want read errors, got %v / %v", seqErr, parErr)
	}
	if len(got) != len(want) {
		t.Fatalf("partial records: stream %d, sequential %d", len(got), len(want))
	}
}

// TestStreamParallelOversizedLine: a line above the 1 MiB cap is skipped and
// counted as malformed — not an abort — as ReadAll does, so a hostile line
// cannot stop ingestion of everything around it.
func TestStreamParallelOversizedLine(t *testing.T) {
	huge := sampleLine + "\n" + strings.Repeat("a", maxLineBytes+2) + "\n" + sampleLine + "\n"
	seq, seqBad, seqErr := ReadAll(strings.NewReader(huge))
	par, parBad, parErr := streamAll(strings.NewReader(huge), StreamConfig{})
	if seqErr != nil || parErr != nil {
		t.Fatalf("oversized line must not abort: ReadAll err=%v, stream err=%v", seqErr, parErr)
	}
	if len(seq) != 2 || len(par) != 2 {
		t.Fatalf("records around the oversized line: ReadAll %d, stream %d, want 2", len(seq), len(par))
	}
	if seqBad != 1 || parBad != 1 {
		t.Fatalf("oversized line must count as malformed once: ReadAll %d, stream %d", seqBad, parBad)
	}
}

// TestTruncatedGzipThroughBorrowedReader: a reader's own ErrUnexpectedEOF —
// here OpenDecoded's, over a gzip file cut short, as ReadLog reads one — is
// a read error, not the clean end the decoder ring's short final block is.
func TestTruncatedGzipThroughBorrowedReader(t *testing.T) {
	whole := gzipBytes(t, synthLog(83, 1200), gzip.DefaultCompression)
	cut := writeTestFile(t, t.TempDir(), "cut.gz", string(whole[:len(whole)/2]))
	rc, err := OpenDecoded(cut)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := streamAll(rc, StreamConfig{})
	rc.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) || len(got) == 0 {
		t.Fatalf("%d records, err = %v, want the records before the cut and ErrUnexpectedEOF", len(got), err)
	}
}

// shortReader hands out r a few bytes at a time: the i-th Read returns at
// most sizes[i] % 9 bytes, 0 standing for an empty (0, nil) read — never two
// in a row, so it always makes progress. The reads a pipe or a socket gives.
type shortReader struct {
	r     io.Reader
	sizes []byte
	i     int
	idle  bool
}

func (s *shortReader) Read(p []byte) (int, error) {
	n := len(p)
	if len(s.sizes) > 0 {
		n = int(s.sizes[s.i%len(s.sizes)]) % 9
		s.i++
	}
	if n == 0 && !s.idle {
		s.idle = true
		return 0, nil
	}
	s.idle = false
	return s.r.Read(p[:min(max(n, 1), len(p))])
}

// FuzzStreamChunks pins the chunk splitter/reassembler against the
// sequential Scanner for arbitrary byte input and tiny chunk sizes, from a
// plain reader that returns fuzzed short reads (with its positions held to
// the inline loop's) and from a gzip member's decode ring: no line is ever
// dropped, duplicated, or split, including CR/LF edge cases, lines longer
// than the chunk size and lines that arrive a byte at a time. Equivalence of
// the record sequence plus the malformed count implies all three — a dropped
// or duplicated line changes a count, a split line changes both parses.
func FuzzStreamChunks(f *testing.F) {
	f.Add([]byte(sampleLine+"\n"+sampleLine), uint8(4), []byte{})
	f.Add([]byte("garbage\r\n\r\n"+sampleLine+"\r\n"), uint8(1), []byte{1})
	f.Add([]byte(sampleLine+` "/r.html" "agent"`+"\n\n"+sampleLine), uint8(16), []byte{0, 7, 3})
	f.Add([]byte(strings.Repeat("x", 300)+"\n"+sampleLine+"\n"), uint8(7), []byte{8, 0, 2, 5})
	f.Add([]byte("\n\r\n \t\n"), uint8(2), []byte{0, 1})
	f.Fuzz(func(t *testing.T, input []byte, chunkSize uint8, reads []byte) {
		if len(input) > 1<<16 {
			return
		}
		// Chunks of 1..64 bytes force every boundary case.
		chunk := int(chunkSize)%64 + 1
		short := func() io.Reader { return &shortReader{r: bytes.NewReader(input), sizes: reads} }

		want, wantBad, wantErr := ReadAll(bytes.NewReader(input))
		got, gotBad, gotErr := streamAll(short(), StreamConfig{ChunkBytes: chunk})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: scanner %v, stream %v", wantErr, gotErr)
		}
		if gotBad != wantBad {
			t.Fatalf("malformed count %d, want %d", gotBad, wantBad)
		}
		sameRecords(t, "reader", got, want)

		// The parser a goroutine ahead of the emitting side: the Scanner's
		// records, and the inline loop's positions.
		plain := func(int) (Source, error) { return newReaderSource(short(), 0), nil }
		ref, ahead := inlineSources(1, 0, plain, chunk), aheadSources(1, 0, plain, chunk)
		if ahead.err != nil || ahead.bad != wantBad {
			t.Fatalf("parse-ahead: malformed count %d, want %d; err %v", ahead.bad, wantBad, ahead.err)
		}
		sameRecords(t, "parse-ahead", ahead.recs, want)
		if !reflect.DeepEqual(ahead.marks, ref.marks) {
			t.Fatalf("parse-ahead: positions differ from the inline loop's:\n%v\n%v", ahead.marks, ref.marks)
		}

		// The same bytes as a gzip member: blocks of chunk bytes cross from
		// the decode goroutine through the ring, lent to the parser.
		packed := gzipBytes(t, string(input), gzip.BestSpeed)
		gz, err := gzip.NewReader(bytes.NewReader(packed))
		if err != nil {
			t.Fatal(err)
		}
		src := &readerSource{dec: startDecoder(gz, "fuzz", 0, chunk, gz)}
		ring := aheadSources(1, 0, func(int) (Source, error) { return src, nil }, chunk)
		if ring.err != nil {
			t.Fatalf("gzip ring: %v", ring.err)
		}
		if ring.bad != wantBad {
			t.Fatalf("gzip ring: malformed count %d, want %d", ring.bad, wantBad)
		}
		sameRecords(t, "gzip ring", ring.recs, want)
	})
}
