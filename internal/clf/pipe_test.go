package clf_test

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/faultio"
)

// TestPipeDeliversWhatWasWritten: a pipe's writer writes k lines and keeps
// the pipe open, writing nothing more, until their records have been emitted.
// A reader that waits for its block to fill never emits them; then the
// writer's timeout fails the pipe.
func TestPipeDeliversWhatWasWritten(t *testing.T) {
	const k = 10
	lines := strings.SplitAfter(clf.SynthLog(89, k), "\n")[:k]
	want, _, err := clf.ReadAll(strings.NewReader(strings.Join(lines, "")))
	if err != nil || len(want) == 0 {
		t.Fatalf("%d records in the lines to write, err %v", len(want), err)
	}
	pr, pw := io.Pipe()
	delivered := make(chan struct{})
	go func() {
		for _, line := range lines {
			io.WriteString(pw, line)
		}
		select {
		case <-delivered:
			pw.Close()
		case <-time.After(5 * time.Second):
			pw.CloseWithError(errors.New("the writer gave up waiting"))
		}
	}()
	got := 0
	_, err = clf.StreamChunked(pr, clf.StreamConfig{}, func(recs []clf.Record) {
		if got += len(recs); got == len(want) {
			close(delivered)
		}
	}, nil)
	if err != nil || got != len(want) {
		t.Errorf("want %d records emitted while the writer holds the pipe open; got %d, err %v", len(want), got, err)
	}
}

// stutterReader returns (0, nil) a few times before every read that moves.
type stutterReader struct {
	r     io.Reader
	calls int
}

func (s *stutterReader) Read(p []byte) (int, error) {
	if s.calls++; s.calls%4 != 0 {
		return 0, nil
	}
	return s.r.Read(p)
}

// failReader serves data[:at] and then err — in the same call as the last
// bytes when together is set — and counts the reads that follow the error.
type failReader struct {
	data     string
	at       int
	err      error
	together bool

	off    int
	failed bool
	after  int
}

func (f *failReader) Read(p []byte) (int, error) {
	if f.failed {
		f.after++
		return 0, f.err
	}
	n := copy(p, f.data[f.off:f.at])
	f.off += n
	if f.off == f.at && (f.together || n == 0) {
		f.failed = true
		return n, f.err
	}
	return n, nil
}

// tornPipe feeds data through a pipe in 100-byte writes, the call-th of which
// faultio tears: half of it arrives, then the injected error.
func tornPipe(data string, call int) io.Reader {
	pr, pw := io.Pipe()
	w := &faultio.Writer{W: pw, Schedule: faultio.FaultAt(faultio.Short, call)}
	go func() {
		for off := 0; off < len(data); off += 100 {
			if _, err := io.WriteString(w, data[off:min(off+100, len(data))]); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.Close()
	}()
	return pr
}

// TestAwkwardReaders: a block is whatever one Read returned, so the readers
// that return little, nothing, data with the error, or an error mid-line all
// give ReadAll's records in complete lines — every record before a fault is
// emitted, the error comes back once and the reader is left alone after it,
// every reported position is a line boundary, and streaming again from any
// of them yields exactly the records not yet emitted.
func TestAwkwardReaders(t *testing.T) {
	log := clf.SynthLog(97, 400)
	want, wantBad, err := clf.ReadAll(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	// tornPipe cuts a 100-byte write at its half: the first such place past
	// 12 KB that falls inside a line.
	faultAt := 12350
	for log[faultAt-1] == '\n' || log[faultAt] == '\n' {
		faultAt += 100
	}
	whole := log[:strings.LastIndexByte(log[:faultAt], '\n')+1]
	before, beforeBad, err := clf.ReadAll(strings.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	errDisk := errors.New("disk on fire")

	cases := []struct {
		name  string
		open  func() io.Reader
		fault error // nil: the whole log arrives
	}{
		{"one byte", func() io.Reader { return iotest.OneByteReader(strings.NewReader(log)) }, nil},
		{"half", func() io.Reader { return iotest.HalfReader(strings.NewReader(log)) }, nil},
		{"data with EOF", func() io.Reader { return iotest.DataErrReader(strings.NewReader(log)) }, nil},
		{"empty reads", func() io.Reader { return &stutterReader{r: strings.NewReader(log)} }, nil},
		{"error after data", func() io.Reader { return &failReader{data: log, at: faultAt, err: errDisk} }, errDisk},
		{"error with data", func() io.Reader { return &failReader{data: log, at: faultAt, err: errDisk, together: true} }, errDisk},
		{"faultio torn write", func() io.Reader { return tornPipe(log, faultAt/100) }, faultio.ErrInjected},
	}
	for _, tc := range cases {
		for _, chunk := range []int{64, 4096, 0} {
			what := fmt.Sprintf("%s chunk=%d", tc.name, chunk)
			cfg := clf.StreamConfig{ChunkBytes: chunk}
			wantRecs, wantMalformed, end := want, wantBad, len(log)
			if tc.fault != nil {
				wantRecs, wantMalformed, end = before, beforeBad, len(whole)
			}
			type mark struct {
				off  int64
				seen int
			}
			var got []clf.Record
			var marks []mark
			r := tc.open()
			bad, err := clf.StreamChunked(r, cfg,
				func(recs []clf.Record) { got = append(got, recs...) },
				func(pos clf.FilePos) error {
					if pos.File != 0 || pos.Offset <= 0 || log[pos.Offset-1] != '\n' {
						t.Fatalf("%s: position %+v is not a line boundary", what, pos)
					}
					marks = append(marks, mark{pos.Offset, len(got)})
					return nil
				})
			if !errors.Is(err, tc.fault) {
				t.Fatalf("%s: err = %v, want %v", what, err, tc.fault)
			}
			if fr, ok := r.(*failReader); ok && fr.after != 0 {
				t.Fatalf("%s: read %d more times after the error", what, fr.after)
			}
			if bad != wantMalformed {
				t.Fatalf("%s: %d malformed, want %d", what, bad, wantMalformed)
			}
			clf.SameRecords(t, what, got, wantRecs)
			if len(marks) == 0 || marks[len(marks)-1].off != int64(end) {
				t.Fatalf("%s: positions %+v do not end at %d", what, marks, end)
			}
			for i, m := range marks {
				if i%(len(marks)/8+1) != 0 && i != len(marks)-1 {
					continue
				}
				var rest []clf.Record
				if _, err := clf.StreamChunked(strings.NewReader(log[m.off:]), cfg,
					func(recs []clf.Record) { rest = append(rest, recs...) }, nil); err != nil {
					t.Fatal(err)
				}
				clf.SameRecords(t, fmt.Sprintf("%s resumed at %d", what, m.off), rest, want[m.seen:])
			}
		}
	}
}
