package clf

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"strings"
	"testing"
)

// TestStreamMatchesReadAll pins the sequential streaming reader to ReadAll:
// same records in the same order, same malformed count.
func TestStreamMatchesReadAll(t *testing.T) {
	log := synthLog(21, 3000)
	want, wantBad, err := ReadAll(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	gotBad, err := Stream(strings.NewReader(log), func(rec Record) { got = append(got, rec) })
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

// TestStreamParallelMatchesReadAll pins the bounded pipeline for every
// workers/depth combination, including small chunk sizes that force lines
// across chunk boundaries.
func TestStreamParallelMatchesReadAll(t *testing.T) {
	for _, seed := range []int64{4, 11} {
		log := synthLog(seed, 4000)
		want, wantBad, err := ReadAll(strings.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for _, depth := range []int{1, 2, 8} {
				for _, chunk := range []int{64, 4096, readChunkSize} {
					var got []Record
					gotBad, err := streamParallel(strings.NewReader(log), workers, depth, chunk,
						func(rec Record) { got = append(got, rec) }, nil)
					if err != nil {
						t.Fatal(err)
					}
					if gotBad != wantBad || len(got) != len(want) {
						t.Fatalf("seed=%d workers=%d depth=%d chunk=%d: got %d/%d, want %d/%d",
							seed, workers, depth, chunk, len(got), gotBad, len(want), wantBad)
					}
					for i := range got {
						if !recordsMatch(got[i], want[i]) {
							t.Fatalf("seed=%d workers=%d depth=%d chunk=%d: record %d differs:\n%+v\n%+v",
								seed, workers, depth, chunk, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestStreamParallelPartialOnReadError mirrors the ReadAllParallel contract:
// records delivered before a read error are emitted, and the error is
// returned after them.
func TestStreamParallelPartialOnReadError(t *testing.T) {
	log := synthLog(9, 300)
	want, _, seqErr := ReadAll(&chunkFailReader{data: []byte(log)})
	var got []Record
	_, parErr := StreamParallel(&chunkFailReader{data: []byte(log)}, 4, 2,
		func(rec Record) { got = append(got, rec) })
	if seqErr == nil || parErr == nil {
		t.Fatalf("want read errors, got %v / %v", seqErr, parErr)
	}
	if len(got) != len(want) {
		t.Fatalf("partial records: stream %d, sequential %d", len(got), len(want))
	}
}

// TestStreamParallelOversizedLine: a line above the 1 MiB cap is skipped and
// counted as malformed — not an abort — and both readers agree, so a hostile
// line cannot stop ingestion of everything around it.
func TestStreamParallelOversizedLine(t *testing.T) {
	huge := sampleLine + "\n" + strings.Repeat("a", maxLineBytes+2) + "\n" + sampleLine + "\n"
	var seqRecs, parRecs int
	seqBad, seqErr := Stream(strings.NewReader(huge), func(Record) { seqRecs++ })
	parBad, parErr := StreamParallel(strings.NewReader(huge), 4, 2, func(Record) { parRecs++ })
	if seqErr != nil || parErr != nil {
		t.Fatalf("oversized line must not abort: sequential err=%v, parallel err=%v", seqErr, parErr)
	}
	if seqRecs != 2 || parRecs != 2 {
		t.Fatalf("records around the oversized line: sequential %d, parallel %d, want 2", seqRecs, parRecs)
	}
	if seqBad != 1 || parBad != 1 {
		t.Fatalf("oversized line must count as malformed once: sequential %d, parallel %d", seqBad, parBad)
	}
}

// FuzzStreamChunks pins the chunk splitter/reassembler against the
// sequential Scanner for arbitrary byte input, tiny chunk sizes, and any
// workers/depth, from a plain reader (pooled, and on the sequential plan's
// parser goroutine with its positions held to the inline loop's) and from a
// gzip member's decode ring (serial and pooled): no line is ever dropped, duplicated, or split, including
// CR/LF edge cases and lines longer than the chunk size. Equivalence of the
// record sequence plus the malformed count implies all three — a dropped or
// duplicated line changes a count, a split line changes both parses.
func FuzzStreamChunks(f *testing.F) {
	f.Add([]byte(sampleLine+"\n"+sampleLine), uint8(4), uint8(2), uint8(1))
	f.Add([]byte("garbage\r\n\r\n"+sampleLine+"\r\n"), uint8(1), uint8(3), uint8(2))
	f.Add([]byte(sampleLine+` "/r.html" "agent"`+"\n\n"+sampleLine), uint8(16), uint8(2), uint8(8))
	f.Add([]byte(strings.Repeat("x", 300)+"\n"+sampleLine+"\n"), uint8(7), uint8(5), uint8(1))
	f.Add([]byte("\n\r\n \t\n"), uint8(2), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, input []byte, chunkSize, workers, depth uint8) {
		if len(input) > 1<<16 {
			return
		}
		// Chunks of 1..64 bytes force every boundary case; workers >= 2 so
		// the parallel path (not the Stream fallback) is exercised.
		chunk := int(chunkSize)%64 + 1
		w := int(workers)%4 + 2
		d := int(depth)%4 + 1

		want, wantBad, wantErr := ReadAll(bytes.NewReader(input))
		var got []Record
		gotBad, gotErr := streamParallel(bytes.NewReader(input), w, d, chunk,
			func(rec Record) { got = append(got, rec) }, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: scanner %v, stream %v", wantErr, gotErr)
		}
		if gotBad != wantBad {
			t.Fatalf("malformed count %d, want %d", gotBad, wantBad)
		}
		sameRecords(t, "reader", got, want)

		// The sequential plan, its parser a goroutine ahead of the emitting
		// side: the Scanner's records, and the inline loop's positions.
		plain := func(int) (Source, error) { return newReaderSource(bytes.NewReader(input), SourceReader, 0), nil }
		ref, ahead := inlineSources(1, 0, plain, chunk), aheadSources(1, 0, plain, chunk)
		if ahead.err != nil || ahead.bad != wantBad {
			t.Fatalf("parse-ahead: malformed count %d, want %d; err %v", ahead.bad, wantBad, ahead.err)
		}
		sameRecords(t, "parse-ahead", ahead.recs, want)
		if !reflect.DeepEqual(ahead.marks, ref.marks) {
			t.Fatalf("parse-ahead: positions differ from the inline loop's:\n%v\n%v", ahead.marks, ref.marks)
		}

		// The same bytes as a gzip member: blocks of chunk bytes cross from
		// the decode goroutine through the ring, lent to the serial loop
		// (workers 1) or copied out for the pool.
		packed := gzipBytes(t, string(input), gzip.BestSpeed)
		for _, gw := range []int{1, w} {
			gz, err := gzip.NewReader(bytes.NewReader(packed))
			if err != nil {
				t.Fatal(err)
			}
			src := &readerSource{kind: SourceGzip, dec: startDecoder(gz, "fuzz", 0, chunk, gz)}
			var ring []Record
			ringBad, err := streamSources(1, 0, func(int) (Source, error) { return src, nil }, gw, d, chunk,
				func(recs []Record) { ring = append(ring, recs...) }, nil)
			if err != nil {
				t.Fatalf("gzip ring, workers %d: %v", gw, err)
			}
			if ringBad != wantBad {
				t.Fatalf("gzip ring, workers %d: malformed count %d, want %d", gw, ringBad, wantBad)
			}
			sameRecords(t, "gzip ring", ring, want)
		}
	})
}
