package clf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// referenceString is the fmt rendering of a CLF line that appendTo replaced,
// kept as the formatter's reference: whatever appendTo writes, this wrote.
func referenceString(r Record) string {
	ident, user := r.Ident, r.AuthUser
	if ident == "" {
		ident = "-"
	}
	if user == "" {
		user = "-"
	}
	bytes := "-"
	if r.Bytes >= 0 {
		bytes = fmt.Sprintf("%d", r.Bytes)
	}
	return fmt.Sprintf("%s %s %s [%s] \"%s %s %s\" %d %s",
		r.Host, ident, user, r.Time.Format(TimeLayout),
		r.Method, r.URI, r.Protocol, r.Status, bytes)
}

// referenceCombined is the matching reference for appendCombinedTo.
func referenceCombined(r Record) string {
	ref, agent := r.Referer, r.UserAgent
	if ref == "" {
		ref = NoField
	}
	if agent == "" {
		agent = NoField
	}
	unquote := func(s string) string { return strings.ReplaceAll(s, `"`, "") }
	return referenceString(r) + " \"" + unquote(ref) + "\" \"" + unquote(agent) + "\""
}

// checkAppendMatchesReference holds every rendering of rec to the reference:
// the two append functions (onto a non-empty dst, which they must keep), and
// String and CombinedString over them.
func checkAppendMatchesReference(t *testing.T, rec Record) {
	t.Helper()
	const prefix = "kept:"
	if got, want := string(rec.appendTo([]byte(prefix))), prefix+referenceString(rec); got != want {
		t.Fatalf("appendTo\n got %q\nwant %q", got, want)
	}
	if got, want := string(rec.appendCombinedTo([]byte(prefix))), prefix+referenceCombined(rec); got != want {
		t.Fatalf("appendCombinedTo\n got %q\nwant %q", got, want)
	}
	if got, want := rec.String(), referenceString(rec); got != want {
		t.Fatalf("String\n got %q\nwant %q", got, want)
	}
	if got, want := rec.CombinedString(), referenceCombined(rec); got != want {
		t.Fatalf("CombinedString\n got %q\nwant %q", got, want)
	}
}

// checkWriterRoundTrip writes the sanitized record through a Writer in both
// formats: the file holds the reference line, and it re-parses to the record.
func checkWriterRoundTrip(t *testing.T, rec Record) {
	t.Helper()
	rec = SanitizeRecord(rec)
	for _, combined := range []bool{false, true} {
		var buf bytes.Buffer
		w, want, parse := NewWriter(&buf), referenceString(rec), ParseRecord
		if combined {
			w, want, parse = NewCombinedWriter(&buf), referenceCombined(rec), ParseCombinedRecord
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want+"\n" {
			t.Fatalf("Writer (combined=%v)\n got %q\nwant %q", combined, got, want+"\n")
		}
		back, err := parse(want)
		if err != nil {
			t.Fatalf("written line does not re-parse (combined=%v): %v\n%q", combined, err, want)
		}
		if !combined {
			back.Referer, back.UserAgent = rec.Referer, rec.UserAgent // common format drops them
		}
		if !back.Time.Equal(rec.Time) {
			t.Fatalf("time did not round-trip (combined=%v): %v vs %v", combined, back.Time, rec.Time)
		}
		back.Time = rec.Time
		if back != rec {
			t.Fatalf("round trip diverged (combined=%v):\n got %+v\nwant %+v", combined, back, rec)
		}
	}
}

func TestAppendMatchesReference(t *testing.T) {
	utc := time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)
	base := Record{Host: "10.0.0.7", Ident: "-", AuthUser: "-", Time: utc,
		Method: "GET", URI: "/p/17.html", Protocol: "HTTP/1.1", Status: 200, Bytes: 512}
	with := func(edit func(*Record)) Record {
		r := base
		edit(&r)
		return r
	}
	cases := map[string]Record{
		"plain":         base,
		"empty ident":   with(func(r *Record) { r.Ident = "" }),
		"empty user":    with(func(r *Record) { r.AuthUser = "" }),
		"named user":    with(func(r *Record) { r.Ident, r.AuthUser = "id", "alice" }),
		"bytes -1":      with(func(r *Record) { r.Bytes = -1 }),
		"bytes 0":       with(func(r *Record) { r.Bytes = 0 }),
		"status 100":    with(func(r *Record) { r.Status = 100 }),
		"status 599":    with(func(r *Record) { r.Status = 599 }),
		"zone -0500":    with(func(r *Record) { r.Time = utc.In(time.FixedZone("EST", -5*3600)) }),
		"zone +0530":    with(func(r *Record) { r.Time = utc.In(time.FixedZone("IST", 5*3600+1800)) }),
		"year 999":      with(func(r *Record) { r.Time = time.Date(999, 12, 31, 23, 59, 59, 0, time.UTC) }),
		"year 1":        with(func(r *Record) { r.Time = time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC) }),
		"referer+agent": with(func(r *Record) { r.Referer, r.UserAgent = "http://site/p/3.html", "Mozilla/5.0 (X11; Linux)" }),
		"dash tail":     with(func(r *Record) { r.Referer, r.UserAgent = "-", "-" }),
		"quotes in tail": with(func(r *Record) {
			r.Referer, r.UserAgent = `"lead`, `mid"dle "and" trail"`
		}),
		"only quotes": with(func(r *Record) { r.Referer, r.UserAgent = `"`, `""""` }),
	}
	for name, rec := range cases {
		t.Run(name, func(t *testing.T) {
			checkAppendMatchesReference(t, rec)
			checkWriterRoundTrip(t, rec)
		})
	}
	// Outside what re-parses to itself, the reference is still the reference:
	// no field is interpreted, the numbers print as fmt's %d did.
	for name, rec := range map[string]Record{
		"zero":            {},
		"bytes 2^62":      with(func(r *Record) { r.Bytes = 1<<62 + 7 }),
		"sub-second":      with(func(r *Record) { r.Time = utc.Add(987654321 * time.Nanosecond) }),
		"negative status": with(func(r *Record) { r.Status = -7 }),
		"year 12345":      with(func(r *Record) { r.Time = time.Date(12345, 1, 1, 0, 0, 0, 0, time.UTC) }),
		"raw bytes":       with(func(r *Record) { r.Host, r.URI = "a b\n", "/\xff\x00%s%d" }),
	} {
		t.Run(name, func(t *testing.T) { checkAppendMatchesReference(t, rec) })
	}
}

// FuzzRecordAppend holds the append formatter to the fmt reference byte for
// byte on arbitrary records, and a sanitized record written by Writer to
// re-parse to itself in both formats.
func FuzzRecordAppend(f *testing.F) {
	f.Add("10.0.0.7", "-", "-", "GET", "/p/17.html", "HTTP/1.1", "http://site/p/3.html", "Mozilla/5.0", 200, int64(512), int64(1136214245), 0)
	f.Add("", "", "", "", "", "", "", "", 0, int64(-1), int64(0), -5*60)
	f.Add("h h", "i\n", "u\"", "GE T", "/x\" 200 9 \"y", "HTTP/1.1\r\nfake", "r\"\"", "\"ua\x00\x1b[2J", 599, int64(0), int64(-31000000000), 14*60)
	f.Add("::1", "-", "bob", "POST", "/q?a=1&b=%20", "HTTP/2.0", "-", "-", 100, int64(1)<<40, int64(253402300799), 5*60+30)
	f.Fuzz(func(t *testing.T, host, ident, user, method, uri, proto, referer, agent string, status int, size, sec int64, zoneMin int) {
		rec := Record{Host: host, Ident: ident, AuthUser: user, Method: method, URI: uri, Protocol: proto,
			Referer: referer, UserAgent: agent, Status: status, Bytes: size,
			Time: time.Unix(sec, 0).In(time.FixedZone("", zoneMin*60))}
		checkAppendMatchesReference(t, rec)

		// What the strict parser reads back: a four-digit year, a zone of
		// whole minutes inside a day, a byte count up to its 2^40 cap.
		const year0, year9999 = -62167219200, 253402300799
		zoneMin %= 24 * 60
		rec.Bytes = min(size, 1<<40)
		sec = min(max(sec, year0+24*3600), year9999-24*3600)
		rec.Time = time.Unix(sec, 0).In(time.FixedZone("", zoneMin*60))
		checkWriterRoundTrip(t, rec)
	})
}

// A line longer than the Writer's buffer reaches the destination whole and
// in order, before and after lines that fit, and is counted like any other.
func TestWriterLineLongerThanBuffer(t *testing.T) {
	at := time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)
	short := Record{Host: "10.0.0.7", Time: at, Method: "GET", URI: "/a", Protocol: "HTTP/1.1", Status: 200, Bytes: 1}
	long := short
	long.UserAgent = strings.Repeat("U", MaxFieldBytes)
	recs := []Record{short, long, short, long, long, short}
	for _, combined := range []bool{false, true} {
		var buf bytes.Buffer
		var want strings.Builder
		w, ref := NewWriter(&buf), referenceString
		if combined {
			w, ref = NewCombinedWriter(&buf), referenceCombined
		}
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
			want.WriteString(ref(rec) + "\n")
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want.String() {
			t.Errorf("combined=%v: wrote %d bytes, want the %d reference bytes", combined, buf.Len(), want.Len())
		}
	}
}

// failAfter accepts limit bytes and then fails every write.
type failAfter struct {
	limit int
	buf   bytes.Buffer
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.buf.Len()+len(p) > f.limit {
		return 0, errDiskFull
	}
	return f.buf.Write(p)
}

// Over a destination that starts failing, the Writer accepts exactly the
// records it can buffer before the failing write, latches the destination's
// error, and returns it from every later Write and Flush.
func TestWriterLatchesDestinationError(t *testing.T) {
	at := time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)
	rec := Record{Host: "10.0.0.7", Time: at, Method: "GET", URI: "/a", Protocol: "HTTP/1.1", Status: 200, Bytes: 1,
		Referer: "/r", UserAgent: "ua"}
	const bufSize = 4096 // bufio's default, which NewWriter uses
	for _, combined := range []bool{false, true} {
		dst := &failAfter{limit: 0}
		w, line := NewWriter(dst), referenceString(rec)+"\n"
		if combined {
			w, line = NewCombinedWriter(dst), referenceCombined(rec)+"\n"
		}
		// Records are absorbed until one no longer fits the buffer; that
		// write flushes, and the flush fails.
		fit := bufSize / len(line)
		for i := 0; i < fit; i++ {
			if err := w.Write(rec); err != nil {
				t.Fatalf("combined=%v: buffered write %d failed: %v", combined, i, err)
			}
		}
		if err := w.Write(rec); err != errDiskFull {
			t.Fatalf("combined=%v: overflowing write returned %v, want %v", combined, err, errDiskFull)
		}
		for i := 0; i < 3; i++ {
			if err := w.Write(rec); err != errDiskFull {
				t.Errorf("combined=%v: write after failure returned %v", combined, err)
			}
		}
		if err := w.Flush(); err != errDiskFull {
			t.Errorf("combined=%v: Flush returned %v", combined, err)
		}
	}

	// A destination that fails part-way keeps exactly the flushed prefix.
	dst := &failAfter{limit: bufSize + 100}
	w := NewWriter(dst)
	line := referenceString(rec) + "\n"
	n := 0
	for w.Write(rec) == nil {
		n++
	}
	if want := 2 * bufSize / len(line); n != want {
		t.Errorf("wrote %d records, want %d", n, want)
	}
	if got := dst.buf.String(); got != strings.Repeat(line, 2*bufSize/len(line))[:bufSize] {
		t.Errorf("destination holds %d bytes, want the first %d of the log", len(got), bufSize)
	}
}

// BenchmarkCLFWriter renders records the way serve's log path does — into a
// Writer, flushed per record — in both formats.
func BenchmarkCLFWriter(b *testing.B) {
	at := time.Date(2006, 1, 2, 15, 4, 5, 0, time.Local)
	recs := make([]Record, 256)
	for i := range recs {
		recs[i] = Record{Host: fmt.Sprintf("10.0.%d.%d", i/200, i%200), Ident: "-", AuthUser: "-",
			Time: at.Add(time.Duration(i) * time.Second), Method: "GET", URI: fmt.Sprintf("/p/%d.html", i),
			Protocol: "HTTP/1.1", Status: 200, Bytes: int64(700 + i),
			Referer: fmt.Sprintf("/p/%d.html", (i*7)%300), UserAgent: "Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101"}
	}
	for _, format := range []struct {
		name      string
		newWriter func(io.Writer) *Writer
	}{{"common", NewWriter}, {"combined", NewCombinedWriter}} {
		b.Run(format.name, func(b *testing.B) {
			w := format.newWriter(io.Discard)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := w.Write(recs[i%len(recs)]); err != nil {
					b.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
