// Package clf implements the Common Logfile Format (CLF) that web servers
// use for access logs — the raw input of reactive web usage mining. It
// provides the record model, a strict parser, a writer, a streaming scanner,
// and the data-cleaning filters applied before session reconstruction.
//
// A CLF line has seven fields (the paper, §1):
//
//	host ident authuser [date] "request" status bytes
//
// e.g.
//
//	10.0.0.7 - - [02/Jan/2006:15:04:05 +0000] "GET /p/17.html HTTP/1.1" 200 512
//
// Session reconstruction only needs the host (IP), timestamp, and URL; the
// other fields are carried so logs round-trip and can be filtered on status
// and method.
//
// Logs are read through StreamChunked (a borrowed reader) or
// StreamFilesChunked (plain, gzip or rotated files), one engine: each gzip
// member inflates on a goroutine of its own, one parser goroutine cuts and
// parses line-aligned chunks, and the caller receives each chunk's records
// in input order. ReadAll, the line-at-a-time Scanner, is the reference the
// tests hold that engine to.
package clf

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// TimeLayout is the CLF timestamp layout: day/month/year:time zone.
const TimeLayout = "02/Jan/2006:15:04:05 -0700"

// Record is one parsed CLF log line.
type Record struct {
	// Host is the client machine's IP address (or hostname).
	Host string
	// Ident is the RFC 1413 identity, almost always "-".
	Ident string
	// AuthUser is the authenticated user name, almost always "-".
	AuthUser string
	// Time is the request timestamp.
	Time time.Time
	// Method is the HTTP request method (GET, POST, ...).
	Method string
	// URI is the requested URL path.
	URI string
	// Protocol is the transfer protocol (HTTP/1.0, HTTP/1.1).
	Protocol string
	// Status is the HTTP status code of the response.
	Status int
	// Bytes is the number of bytes transmitted, or -1 when the log recorded
	// "-" (no body).
	Bytes int64
	// Referer is the combined-format referer URL ("" or "-" when absent or
	// when the line was common format). Spelled as in the HTTP header.
	Referer string
	// UserAgent is the combined-format user agent ("" when absent).
	UserAgent string
}

// String renders the record as a CLF line (without trailing newline).
func (r Record) String() string { return string(r.appendTo(nil, nil)) }

// appendTo appends the record's CLF line (without trailing newline) to dst,
// its time through last (see stamp.append). It is the one rendering of the
// common-format fields: String, the combined rendering and Writer all go
// through it.
func (r Record) appendTo(dst []byte, last *stamp) []byte {
	ident, user := r.Ident, r.AuthUser
	if ident == "" {
		ident = "-"
	}
	if user == "" {
		user = "-"
	}
	dst = append(dst, r.Host...)
	dst = append(dst, ' ')
	dst = append(dst, ident...)
	dst = append(dst, ' ')
	dst = append(dst, user...)
	dst = append(dst, " ["...)
	dst = last.append(dst, r.Time)
	dst = append(dst, "] \""...)
	dst = append(dst, r.Method...)
	dst = append(dst, ' ')
	dst = append(dst, r.URI...)
	dst = append(dst, ' ')
	dst = append(dst, r.Protocol...)
	dst = append(dst, "\" "...)
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = append(dst, ' ')
	if r.Bytes < 0 {
		return append(dst, '-')
	}
	return strconv.AppendInt(dst, r.Bytes, 10)
}

// stamp is the last timestamp a Writer formatted: its Unix second, its
// location and its text. Records come in runs of one second, and
// time.Time.AppendFormat reads its layout anew on every call, so a Writer
// formats a second once per run.
type stamp struct {
	sec  int64
	loc  *time.Location
	text []byte
}

// append appends t in TimeLayout to dst. A nil s formats t; otherwise t is
// formatted only when its second or location is not the last one's, since
// the layout shows nothing below the second and one location gives one
// second one offset. A zero stamp holds no location, which no time has.
func (s *stamp) append(dst []byte, t time.Time) []byte {
	if s == nil {
		return t.AppendFormat(dst, TimeLayout)
	}
	if sec, loc := t.Unix(), t.Location(); sec != s.sec || loc != s.loc {
		s.sec, s.loc, s.text = sec, loc, t.AppendFormat(s.text[:0], TimeLayout)
	}
	return append(dst, s.text...)
}

// ParseError describes a malformed CLF line. It records the offending line
// and, when known, its 1-based position in the input stream.
type ParseError struct {
	Line   string
	LineNo int
	Reason string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	if e.LineNo > 0 {
		return fmt.Sprintf("clf: line %d: %s: %q", e.LineNo, e.Reason, truncate(e.Line, 120))
	}
	return fmt.Sprintf("clf: %s: %q", e.Reason, truncate(e.Line, 120))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// inNanoRange reports whether t is an instant time.UnixNano can hold, which
// is how a sessionizer keeps a request's time (core's Tail): roughly the
// years 1678 to 2262. Both parsers reject a line whose time is not.
func inNanoRange(t time.Time) bool { return time.Unix(0, t.UnixNano()).Equal(t) }

// ParseRecord parses a single CLF line. It is strict about structure (field
// count, bracketed date, quoted request, numeric status) and about the time,
// which must be one inNanoRange admits, but tolerant about content (any
// method name, any URI).
func ParseRecord(line string) (Record, error) {
	fail := func(reason string) (Record, error) {
		return Record{}, &ParseError{Line: line, Reason: reason}
	}
	rest := strings.TrimRight(line, "\r\n")
	if strings.TrimSpace(rest) == "" {
		return fail("empty line")
	}

	// host ident authuser
	var fields [3]string
	for i := 0; i < 3; i++ {
		sp := strings.IndexByte(rest, ' ')
		if sp <= 0 {
			return fail("missing host/ident/authuser fields")
		}
		fields[i], rest = rest[:sp], rest[sp+1:]
	}

	// [date]
	if len(rest) == 0 || rest[0] != '[' {
		return fail("missing [ before date")
	}
	close := strings.IndexByte(rest, ']')
	if close < 0 {
		return fail("missing ] after date")
	}
	ts, err := time.Parse(TimeLayout, rest[1:close])
	if err != nil {
		return fail("bad timestamp: " + err.Error())
	}
	if !inNanoRange(ts) {
		return fail("timestamp outside the years 1678 to 2262")
	}
	rest = rest[close+1:]
	if !strings.HasPrefix(rest, " ") {
		return fail("missing space after date")
	}
	rest = rest[1:]

	// "method uri protocol"
	if len(rest) == 0 || rest[0] != '"' {
		return fail("missing opening quote of request")
	}
	endQuote := strings.IndexByte(rest[1:], '"')
	if endQuote < 0 {
		return fail("missing closing quote of request")
	}
	req := rest[1 : 1+endQuote]
	rest = rest[endQuote+2:]
	reqParts := strings.Split(req, " ")
	if len(reqParts) != 3 {
		return fail("request line is not \"METHOD URI PROTOCOL\"")
	}

	// status bytes
	rest = strings.TrimLeft(rest, " ")
	tail := strings.Fields(rest)
	if len(tail) != 2 {
		return fail("trailing fields are not STATUS BYTES")
	}
	status, err := parseUint(tail[0])
	if err != nil || status < 100 || status > 599 {
		return fail("bad status code")
	}
	var bytes int64 = -1
	if tail[1] != "-" {
		b, err := parseUint(tail[1])
		if err != nil {
			return fail("bad byte count")
		}
		bytes = int64(b)
	}

	return Record{
		Host:     fields[0],
		Ident:    fields[1],
		AuthUser: fields[2],
		Time:     ts,
		Method:   reqParts[0],
		URI:      reqParts[1],
		Protocol: reqParts[2],
		Status:   status,
		Bytes:    bytes,
	}, nil
}

// parseUint parses a non-negative decimal integer without allowing signs,
// spaces, or empty strings (stricter than strconv.Atoi for log fields).
func parseUint(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("non-digit %q", c)
		}
		n = n*10 + int(c-'0')
		if n > 1<<40 {
			return 0, fmt.Errorf("number too large")
		}
	}
	return n, nil
}
