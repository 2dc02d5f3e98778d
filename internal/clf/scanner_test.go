package clf

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func logOf(lines ...string) string { return strings.Join(lines, "\n") + "\n" }

func TestScannerSkipsMalformedLines(t *testing.T) {
	input := logOf(
		sampleLine,
		"this is not a log line",
		"",
		`10.0.0.8 - - [02/Jan/2006:15:05:05 +0000] "GET /a.html HTTP/1.1" 200 100`,
		"   ",
		"another bad line with [brackets",
	)
	sc := NewScanner(strings.NewReader(input))
	var hosts []string
	for sc.Scan() {
		hosts = append(hosts, sc.Record().Host)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2 || hosts[0] != "10.0.0.7" || hosts[1] != "10.0.0.8" {
		t.Errorf("hosts = %v", hosts)
	}
	bad, details := sc.Malformed()
	if bad != 2 {
		t.Errorf("malformed = %d, want 2", bad)
	}
	if len(details) != 2 {
		t.Fatalf("details = %d entries, want 2", len(details))
	}
	if details[0].LineNo != 2 || details[1].LineNo != 6 {
		t.Errorf("line numbers = %d, %d, want 2, 6 (blank lines count toward position)",
			details[0].LineNo, details[1].LineNo)
	}
}

func TestScannerErrorCap(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < maxRetainedErrors+50; i++ {
		sb.WriteString("bad line\n")
	}
	sc := NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
	}
	count, details := sc.Malformed()
	if count != maxRetainedErrors+50 {
		t.Errorf("count = %d", count)
	}
	if len(details) != maxRetainedErrors {
		t.Errorf("retained = %d, want cap %d", len(details), maxRetainedErrors)
	}
}

type failingReader struct{ after int }

func (f *failingReader) Read(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("disk on fire")
	}
	n := copy(p, sampleLine+"\n")
	f.after--
	return n, nil
}

func TestScannerPropagatesReadErrors(t *testing.T) {
	sc := NewScanner(&failingReader{after: 1})
	for sc.Scan() {
	}
	if sc.Err() == nil {
		t.Error("read error not propagated")
	}
	if _, _, err := ReadAll(&failingReader{}); err == nil {
		t.Error("ReadAll did not propagate read error")
	}
}

// Regression: ReadAll used to return (nil, 0, err) on a read error, throwing
// away everything parsed before the failure. Truncated-log callers need the
// partial records and the malformed count alongside the error.
func TestReadAllReturnsPartialsOnReadError(t *testing.T) {
	prefix := logOf(sampleLine, "not a log line", sampleLine)
	r := io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(errors.New("disk on fire")))
	records, malformed, err := ReadAll(r)
	if err == nil {
		t.Fatal("read error not propagated")
	}
	if len(records) != 2 {
		t.Errorf("partial records = %d, want 2", len(records))
	}
	if malformed != 1 {
		t.Errorf("malformed = %d, want 1", malformed)
	}
}

func TestReadAllWriteAllRoundTrip(t *testing.T) {
	base := time.Date(2006, 1, 2, 10, 0, 0, 0, time.UTC)
	var recs []Record
	for i := 0; i < 25; i++ {
		recs = append(recs, Record{
			Host: "10.0.0.1", Ident: "-", AuthUser: "-",
			Time:   base.Add(time.Duration(i) * time.Minute),
			Method: "GET", URI: "/p/" + itoa(i) + ".html", Protocol: "HTTP/1.1",
			Status: 200, Bytes: int64(100 + i),
		})
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, malformed, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if malformed != 0 {
		t.Errorf("malformed = %d", malformed)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !got[i].Time.Equal(recs[i].Time) || got[i].URI != recs[i].URI {
			t.Fatalf("record %d changed: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, errors.New("pipe closed") }

func TestWriterPropagatesErrors(t *testing.T) {
	w := NewWriter(failingWriter{})
	// The bufio layer absorbs small writes; force a flush to surface it.
	for i := 0; i < 10000; i++ {
		_ = w.Write(Record{Host: "1.1.1.1", Time: time.Unix(0, 0).UTC(),
			Method: "GET", URI: "/", Protocol: "HTTP/1.1", Status: 200})
	}
	if err := w.Flush(); err == nil {
		t.Error("Flush did not report write error")
	}
	if err := w.Write(Record{}); err == nil {
		t.Error("Write after error did not fail")
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.Write(Record{Host: "1.1.1.1", Time: time.Unix(0, 0).UTC(),
			Method: "GET", URI: "/", Protocol: "HTTP/1.1", Status: 200, Bytes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Errorf("output has %d lines", got)
	}
}

func BenchmarkParseRecord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRecord(sampleLine); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanner(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		sb.WriteString(sampleLine)
		sb.WriteByte('\n')
	}
	data := sb.String()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := NewScanner(strings.NewReader(data))
		n := 0
		for sc.Scan() {
			n++
		}
		if n != 1000 {
			b.Fatalf("scanned %d", n)
		}
	}
}
