package webserver

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"smartsra/internal/clf"
)

// FuzzAccessLogRecord hammers the untrusted HTTP → CLF boundary: hostile
// URIs, Referers, User-Agents, and forwarded client addresses (NULs, CRLF,
// quotes, terminal escapes, multi-megabyte values) flow through
// AccessLogWith and the CLF writer, and every written line must
// re-parse to exactly the record that was logged — one line per request, no
// log injection, no torn framing, no record lost to the 1 MiB line cap.
func FuzzAccessLogRecord(f *testing.F) {
	seeds := []struct{ uri, referer, agent, fwd string }{
		{"/p/17.html", "http://site/p/3.html", "Mozilla/5.0 (X11; Linux)", ""},
		{"/x\" 200 999", "evil\" \"injected", "ua\r\n10.6.6.6 - - fake line", "10.9.9.9"},
		{"/nul\x00byte", "\x00", "\x1b[2J\x07", "a b c"},
		{"/crlf\r\ninjected GET /fake HTTP/1.1", "-", "-", "127.0.0.1, 10.0.0.1"},
		{strings.Repeat("/very-long", 200000), strings.Repeat("R", 2<<20), strings.Repeat("U", 1<<21), ""},
		{"", "", "", ""},
		{"/q?a=1&b=%20%22", "http://r/?x=\"y\"", "tab\there quote\"", "\"quoted\""},
	}
	for _, s := range seeds {
		f.Add(s.uri, s.referer, s.agent, s.fwd)
	}

	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, uri, referer, agent, fwd string) {
		sink := &CollectSink{}
		h := AccessLogWith(
			http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write([]byte("ok"))
			}),
			sink,
			LogOptions{now: func() time.Time { return at }, TrustForwardedFor: true},
		)

		// Build the request by hand: URL.Opaque carries the raw fuzz bytes
		// into RequestURI() unfiltered, and direct Header map writes bypass
		// net/http's header validation — exactly what a hostile peer speaking
		// raw TCP can deliver.
		req := &http.Request{
			Method:     "GET",
			URL:        &url.URL{Opaque: uri},
			Proto:      "HTTP/1.1",
			Header:     http.Header{"Referer": {referer}, "User-Agent": {agent}},
			RemoteAddr: "10.0.0.7:4711",
			Host:       "site",
		}
		if fwd != "" {
			req.Header.Set("X-Forwarded-For", fwd)
		}
		h.ServeHTTP(httptest.NewRecorder(), req)

		recs := sink.Records()
		if len(recs) != 1 {
			t.Fatalf("logged %d records for one request", len(recs))
		}
		rec := recs[0]
		if rec != clf.SanitizeRecord(rec) {
			t.Fatalf("boundary emitted an unsanitized record: %+v", rec)
		}

		for _, combined := range []bool{false, true} {
			var buf bytes.Buffer
			w := clf.NewWriter(&buf)
			if combined {
				w = clf.NewCombinedWriter(&buf)
			}
			if err := w.Write(rec); err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := w.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			line := buf.String()
			if n := strings.Count(line, "\n"); n != 1 || !strings.HasSuffix(line, "\n") {
				t.Fatalf("one record produced %d physical lines: %q", n, line)
			}
			body := line[:len(line)-1]
			if len(body) > 1<<20 {
				t.Fatalf("line length %d exceeds the scanner's 1 MiB cap — record would be dropped", len(body))
			}
			var back clf.Record
			var err error
			if combined {
				back, err = clf.ParseCombinedRecord(body)
			} else {
				back, err = clf.ParseRecord(body)
				back.Referer, back.UserAgent = rec.Referer, rec.UserAgent
			}
			if err != nil {
				t.Fatalf("written line does not re-parse (combined=%v): %v\n%q", combined, err, body)
			}
			if !back.Time.Equal(rec.Time) {
				t.Fatalf("timestamp did not round-trip: %v vs %v", back.Time, rec.Time)
			}
			back.Time = rec.Time
			if back != rec {
				t.Fatalf("round trip diverged (combined=%v):\n got %+v\nwant %+v\nline %q",
					combined, back, rec, body)
			}
		}
	})
}
