package clf

import (
	"bufio"
	"fmt"
	"io"

	"smartsra/internal/metrics"
)

// Process-wide data-quality instrumentation, aggregated across all Scanners
// (per-Scanner numbers stay available via Malformed/LinesRead).
var (
	metricRecords   = metrics.GetCounter("clf.scanner.records")
	metricMalformed = metrics.GetCounter("clf.scanner.malformed")
)

// Scanner streams Records out of a CLF log. Malformed lines do not abort the
// scan; they are counted and (up to a cap) retained as ParseErrors so the
// caller can report data-quality issues, which is routine for real access
// logs.
//
// Usage mirrors bufio.Scanner:
//
//	sc := clf.NewScanner(r)
//	for sc.Scan() {
//	    rec := sc.Record()
//	    ...
//	}
//	if err := sc.Err(); err != nil { ... }
type Scanner struct {
	ls      *lineScanner
	rec     Record
	err     error
	lineNo  int
	bad     int
	badErrs []*ParseError
	// in is the string-intern arena shared with the chunk-parallel path,
	// scoped to ~readChunkSize bytes of input (tracked by inBytes) so an
	// unbounded log never grows an unbounded table. Real logs repeat hosts,
	// URIs, referers, and agents constantly; interning makes the sequential
	// reader's []byte→string conversions amortized allocation-free, matching
	// the parallel path.
	in      *internTable
	inBytes int
}

// maxRetainedErrors caps how many ParseErrors a Scanner keeps; beyond this
// only the count grows.
const maxRetainedErrors = 100

// maxRetainedLineBytes caps how much of a malformed line a retained
// ParseError keeps. Retention copies the truncated prefix instead of slicing
// the original, so a single malformed 1 MiB line no longer pins its whole
// buffer for the Scanner's lifetime.
const maxRetainedLineBytes = 512

// NewScanner returns a Scanner reading CLF lines from r. Lines are split by
// a hand-rolled IndexByte scanner (no per-line token copy); lines over 1 MiB
// (far above any legal CLF line) are skipped and counted as malformed rather
// than aborting the scan, so one hostile line cannot stop ingestion.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{ls: newLineScanner(r)}
}

// Scan advances to the next well-formed record, skipping malformed and blank
// lines. It returns false at end of input or on a read error.
func (s *Scanner) Scan() bool {
	for {
		line, lerr := s.ls.next()
		if lerr != nil {
			if lerr == errLineTooLong {
				s.lineNo++
				s.bad++
				metricMalformed.Inc()
				if len(s.badErrs) < maxRetainedErrors {
					s.badErrs = append(s.badErrs, &ParseError{
						LineNo: s.lineNo,
						Reason: "line exceeds the 1 MiB line cap; skipped",
					})
				}
				continue
			}
			if lerr != io.EOF {
				s.err = lerr
			}
			return false
		}
		s.lineNo++
		if isBlankBytes(line) {
			continue
		}
		if s.in == nil || s.inBytes >= readChunkSize {
			s.in = newInternTable()
			s.inBytes = 0
		}
		s.inBytes += len(line) + 1
		rec, _, err := parseAnyRecordBytesIn(line, s.in)
		if err != nil {
			s.bad++
			metricMalformed.Inc()
			if pe, ok := err.(*ParseError); ok && len(s.badErrs) < maxRetainedErrors {
				pe.LineNo = s.lineNo
				pe.Line = truncate(pe.Line, maxRetainedLineBytes)
				s.badErrs = append(s.badErrs, pe)
			}
			continue
		}
		s.rec = rec
		metricRecords.Inc()
		return true
	}
}

// Record returns the record produced by the last successful Scan.
func (s *Scanner) Record() Record { return s.rec }

// Err returns the first read error encountered, or nil. Parse errors are not
// read errors; see Malformed.
func (s *Scanner) Err() error { return s.err }

// Malformed returns how many lines failed to parse and (capped) the details.
func (s *Scanner) Malformed() (count int, details []*ParseError) {
	return s.bad, s.badErrs
}

// LinesRead returns the number of input lines consumed so far, blank lines
// included (so ParseError line numbers match the file).
func (s *Scanner) LinesRead() int { return s.lineNo }

func isBlank(line string) bool {
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ' ', '\t', '\r':
		default:
			return false
		}
	}
	return true
}

func isBlankBytes(line []byte) bool {
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ' ', '\t', '\r':
		default:
			return false
		}
	}
	return true
}

// ReadAll parses every record in r, skipping malformed lines, and returns
// the records plus the malformed-line count. It fails only on read errors —
// and even then the records parsed before the failure and the malformed
// count are returned alongside the error, so callers reading truncated logs
// can still report the data they recovered and its quality.
func ReadAll(r io.Reader) (records []Record, malformed int, err error) {
	sc := NewScanner(r)
	for sc.Scan() {
		records = append(records, sc.Record())
	}
	malformed, _ = sc.Malformed()
	if err := sc.Err(); err != nil {
		return records, malformed, fmt.Errorf("clf: read: %w", err)
	}
	return records, malformed, nil
}

// Writer emits Records as CLF lines (common format by default).
type Writer struct {
	w        *bufio.Writer
	err      error
	combined bool
	last     stamp // the last time written, formatted
}

// NewWriter returns a Writer targeting w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// NewCombinedWriter returns a Writer that renders combined-format lines
// (with "referer" "user-agent" tails).
func NewCombinedWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), combined: true}
}

// Write appends one record as a CLF line, rendered straight into the
// buffer's free space. A time in the second and location of the previous
// record's is not formatted again.
func (w *Writer) Write(rec Record) error {
	if w.err != nil {
		return w.err
	}
	line := w.w.AvailableBuffer()
	if w.combined {
		line = rec.appendCombinedTo(line, &w.last)
	} else {
		line = rec.appendTo(line, &w.last)
	}
	if _, err := w.w.Write(append(line, '\n')); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Flush drains buffered output and returns the first error seen.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// WriteAll writes all records to w as a CLF log.
func WriteAll(w io.Writer, records []Record) error {
	cw := NewWriter(w)
	for _, rec := range records {
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("clf: write: %w", err)
		}
	}
	return cw.Flush()
}
