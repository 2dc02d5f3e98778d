package clf

import "bytes"

// readChunkSize is the target size of one line-aligned parse chunk. Chunks
// are extended to the next newline, so no line straddles two of them.
const readChunkSize = 1 << 20

// maxLineBytes mirrors the Scanner's 1 MiB line cap: a "line" that exceeds
// it is a defect (or an attack), and both readers fail the same way.
const maxLineBytes = 1 << 20

// parseChunkAs parses every line of one chunk (the final line may lack a
// trailing newline) into *rec and appends stage(rec) onto out, skipping blank
// lines and counting malformed ones, mirroring the Scanner's accounting —
// including the over-long-line policy: a line past the 1 MiB cap (possible
// when chunks are larger than the cap: a Source checks only the first line of
// each of its blocks) is counted and skipped, exactly as the sequential
// lineScanner does. Every caller's records and malformed lines reach
// clf.scanner.records and clf.scanner.malformed here, one Add each per chunk,
// never per line. rec is the caller's scratch (see parser.rec). The intern
// table is the caller's, held across chunks so repeated hosts/URIs stay the
// same string for as long as it lives; the caller retires it via full()
// before a chunk, so it holds at most maxInternEntries plus one chunk's
// distinct strings.
func parseChunkAs[T any](data []byte, out []T, in *internTable, rec *Record, stage func(*Record) T) ([]T, int) {
	bad, before := 0, len(out)
	for len(data) > 0 {
		var line []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			line, data = data, nil
		}
		if len(line) > maxLineBytes {
			bad++
			continue
		}
		if isBlankBytes(line) {
			continue
		}
		var err error
		if *rec, _, err = parseAnyRecordBytesIn(line, in); err != nil {
			bad++
			continue
		}
		out = append(out, stage(rec))
	}
	metricRecords.Add(int64(len(out) - before))
	metricMalformed.Add(int64(bad))
	return out, bad
}

// parseChunkIntern is parseChunkAs keeping the records themselves.
func parseChunkIntern(data []byte, recs []Record, in *internTable) ([]Record, int) {
	return parseChunkAs(data, recs, in, new(Record), copyRecord)
}

// ParseChunk is the stream readers' chunk parse for a caller that reads its
// own bytes (serve's owner following the access log it writes): every line of
// data appended to recs, blank lines skipped, malformed and over-long ones
// counted. Strings are copied, not interned, so data may be reused at once.
func ParseChunk(data []byte, recs []Record) ([]Record, int) {
	return parseChunkIntern(data, recs, nil)
}
