package clf

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var sampleLine = `10.0.0.7 - - [02/Jan/2006:15:04:05 +0000] "GET /p/17.html HTTP/1.1" 200 512`

func TestParseRecord(t *testing.T) {
	r, err := ParseRecord(sampleLine)
	if err != nil {
		t.Fatal(err)
	}
	if r.Host != "10.0.0.7" {
		t.Errorf("Host = %q", r.Host)
	}
	if r.Ident != "-" || r.AuthUser != "-" {
		t.Errorf("Ident/AuthUser = %q/%q", r.Ident, r.AuthUser)
	}
	want := time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)
	if !r.Time.Equal(want) {
		t.Errorf("Time = %v, want %v", r.Time, want)
	}
	if r.Method != "GET" || r.URI != "/p/17.html" || r.Protocol != "HTTP/1.1" {
		t.Errorf("request parsed as %q %q %q", r.Method, r.URI, r.Protocol)
	}
	if r.Status != 200 || r.Bytes != 512 {
		t.Errorf("status/bytes = %d/%d", r.Status, r.Bytes)
	}
}

func TestParseRecordDashBytes(t *testing.T) {
	line := `192.168.1.1 - alice [02/Jan/2006:15:04:05 -0500] "POST /login HTTP/1.0" 302 -`
	r, err := ParseRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes != -1 {
		t.Errorf("Bytes = %d, want -1 for dash", r.Bytes)
	}
	if r.AuthUser != "alice" {
		t.Errorf("AuthUser = %q", r.AuthUser)
	}
	if r.Status != 302 {
		t.Errorf("Status = %d, want 302", r.Status)
	}
	_, off := r.Time.Zone()
	if off != -5*3600 {
		t.Errorf("zone offset = %d, want -18000", off)
	}
}

func TestParseRecordRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"empty", ""},
		{"whitespace", "   \t "},
		{"too few fields", "1.2.3.4 -"},
		{"no bracket", `1.2.3.4 - - 02/Jan/2006:15:04:05 +0000 "GET / HTTP/1.1" 200 1`},
		{"unclosed bracket", `1.2.3.4 - - [02/Jan/2006:15:04:05 +0000 "GET / HTTP/1.1" 200 1`},
		{"bad date", `1.2.3.4 - - [2006-01-02 15:04] "GET / HTTP/1.1" 200 1`},
		{"no request quote", `1.2.3.4 - - [02/Jan/2006:15:04:05 +0000] GET / HTTP/1.1 200 1`},
		{"unclosed quote", `1.2.3.4 - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1 200 1`},
		{"two-part request", `1.2.3.4 - - [02/Jan/2006:15:04:05 +0000] "GET /" 200 1`},
		{"missing bytes", `1.2.3.4 - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 200`},
		{"bad status", `1.2.3.4 - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" abc 1`},
		{"status out of range", `1.2.3.4 - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 99 1`},
		{"bad bytes", `1.2.3.4 - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 200 12x`},
		{"negative bytes", `1.2.3.4 - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 200 -5`},
		{"extra tail", `1.2.3.4 - - [02/Jan/2006:15:04:05 +0000] "GET / HTTP/1.1" 200 1 junk`},
	}
	for _, c := range cases {
		if _, err := ParseRecord(c.line); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.line)
		} else if !strings.HasPrefix(err.Error(), "clf:") {
			t.Errorf("%s: error %q lacks clf: prefix", c.name, err)
		}
	}
}

func TestRecordStringRoundTrip(t *testing.T) {
	r, err := ParseRecord(sampleLine)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != sampleLine {
		t.Errorf("String() = %q\nwant        %q", got, sampleLine)
	}
	r2, err := ParseRecord(r.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v", err)
	}
	if !r2.Time.Equal(r.Time) {
		t.Errorf("round trip changed time: %v vs %v", r2.Time, r.Time)
	}
	r2.Time, r.Time = time.Time{}, time.Time{}
	if r2 != r {
		t.Errorf("round trip changed record:\n got %+v\nwant %+v", r2, r)
	}
}

func TestRecordStringFillsDefaults(t *testing.T) {
	r := Record{
		Host: "1.1.1.1", Time: time.Date(2006, 3, 4, 5, 6, 7, 0, time.UTC),
		Method: "GET", URI: "/", Protocol: "HTTP/1.1", Status: 200, Bytes: -1,
	}
	line := r.String()
	if !strings.Contains(line, "1.1.1.1 - - [") {
		t.Errorf("empty ident/authuser not rendered as dashes: %q", line)
	}
	if !strings.HasSuffix(line, " 200 -") {
		t.Errorf("negative bytes not rendered as dash: %q", line)
	}
	if _, err := ParseRecord(line); err != nil {
		t.Errorf("default-filled line does not re-parse: %v", err)
	}
}

// Property: String/ParseRecord round-trips for arbitrary well-formed records.
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(host uint32, status uint16, bytes int32, page uint16, unix int32) bool {
		r := Record{
			Host:     ipv4(host),
			Ident:    "-",
			AuthUser: "-",
			Time:     time.Unix(int64(unix)&0x7fffffff, 0).UTC(),
			Method:   "GET",
			URI:      "/p/" + itoa(int(page)) + ".html",
			Protocol: "HTTP/1.1",
			Status:   100 + int(status)%500,
			Bytes:    int64(bytes),
		}
		if r.Bytes < 0 {
			r.Bytes = -1
		}
		got, err := ParseRecord(r.String())
		if err != nil {
			return false
		}
		// Compare Time with Equal: Parse may attach Local instead of UTC
		// when the numeric offset matches the local zone.
		sameTime := got.Time.Equal(r.Time)
		got.Time, r.Time = time.Time{}, time.Time{}
		return sameTime && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParseErrorFormatting(t *testing.T) {
	_, err := ParseRecord("garbage")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if !strings.Contains(pe.Error(), "garbage") {
		t.Errorf("error %q does not quote the line", pe.Error())
	}
	pe.LineNo = 7
	if !strings.Contains(pe.Error(), "line 7") {
		t.Errorf("error %q does not include line number", pe.Error())
	}
	long := strings.Repeat("x", 500)
	_, err = ParseRecord(long)
	if len(err.Error()) > 200 {
		t.Errorf("error for long line not truncated: %d bytes", len(err.Error()))
	}
}

func ipv4(v uint32) string {
	return itoa(int(v>>24&255)) + "." + itoa(int(v>>16&255)) + "." +
		itoa(int(v>>8&255)) + "." + itoa(int(v&255))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
