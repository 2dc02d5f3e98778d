package clf

import (
	"bytes"
	"sync/atomic"
	"time"
)

// Byte-level fast path for the CLF parsers. The string parsers in record.go
// and combined.go remain the reference implementation; the functions here
// parse directly from the []byte a bufio.Scanner (or a chunked parallel
// reader) hands out, so the hot ingestion loop never materializes a per-line
// string, never calls time.Parse on well-formed timestamps, and never builds
// the intermediate []string slices of strings.Split/strings.Fields. Only the
// retained Record fields (host, URI, ...) are copied into fresh strings.
//
// Every deviation from the fixed fast-path shape — unusual timestamp,
// non-canonical month case, exotic whitespace — falls back to the strict
// string parsers, so by construction the byte parsers accept exactly what
// the string parsers accept and produce identical Records and errors.
// FuzzParseAnyRecordBytes pins the equivalence.

// ParseAnyRecordBytes is ParseAnyRecord operating on a byte slice: combined
// format is detected first, common format otherwise. It is the parser the
// streaming Scanner uses.
func ParseAnyRecordBytes(line []byte) (Record, bool, error) {
	return parseAnyRecordBytesIn(line, nil)
}

// parseAnyRecordBytesIn is ParseAnyRecordBytes with the caller's intern table
// (nil disables interning). The chunk readers pass the table their parser
// keeps across chunks, so repeated hosts, URIs, referers, and user agents are
// copied once per table instead of once per record. Interned strings are
// equal values, so the result is indistinguishable from the nil-table path.
func parseAnyRecordBytesIn(line []byte, in *internTable) (Record, bool, error) {
	trimmed := trimCRLF(line)
	if prefix, ref, agent, ok := splitCombinedTailBytes(trimmed); ok {
		if rec, ok := parseRecordFast(prefix, in); ok {
			rec.Referer = in.field(ref)
			rec.UserAgent = in.str(agent)
			return rec, true, nil
		}
		// Combined shape but an unusual prefix: let the reference parser
		// decide (it may still accept via a slow path, or produce the
		// canonical error).
		return ParseAnyRecord(string(line))
	}
	if rec, ok := parseRecordFast(trimmed, in); ok {
		return rec, false, nil
	}
	return ParseAnyRecord(string(line))
}

// trimCRLF drops trailing '\r' and '\n' bytes, mirroring
// strings.TrimRight(line, "\r\n").
func trimCRLF(b []byte) []byte {
	for len(b) > 0 {
		switch b[len(b)-1] {
		case '\r', '\n':
			b = b[:len(b)-1]
		default:
			return b
		}
	}
	return b
}

// splitCombinedTailBytes mirrors splitCombinedTail on bytes.
func splitCombinedTailBytes(line []byte) (prefix, referer, agent []byte, ok bool) {
	if len(line) == 0 || line[len(line)-1] != '"' {
		return nil, nil, nil, false
	}
	body := line[:len(line)-1]
	q := bytes.LastIndexByte(body, '"')
	if q < 0 {
		return nil, nil, nil, false
	}
	agent = body[q+1:]
	body = trimRightSpaces(body[:q])
	if len(body) == 0 || body[len(body)-1] != '"' {
		return nil, nil, nil, false
	}
	body = body[:len(body)-1]
	q = bytes.LastIndexByte(body, '"')
	if q < 0 {
		return nil, nil, nil, false
	}
	referer = body[q+1:]
	prefix = trimRightSpaces(body[:q])
	if bytes.Count(prefix, []byte(`"`)) < 2 {
		return nil, nil, nil, false
	}
	return prefix, referer, agent, true
}

func trimRightSpaces(b []byte) []byte {
	for len(b) > 0 && b[len(b)-1] == ' ' {
		b = b[:len(b)-1]
	}
	return b
}

// parseRecordFast parses one common-format line already stripped of trailing
// CR/LF. It returns ok=false — never a wrong Record — on anything outside
// the fixed fast-path shape; callers then retry through the strict string
// parser, which is the behavioral reference. A non-nil intern table dedups
// the Host and URI copies within one parse batch.
func parseRecordFast(rest []byte, in *internTable) (Record, bool) {
	// host ident authuser
	var fields [3][]byte
	for i := 0; i < 3; i++ {
		sp := bytes.IndexByte(rest, ' ')
		if sp <= 0 {
			return Record{}, false
		}
		fields[i], rest = rest[:sp], rest[sp+1:]
	}

	// [date]
	if len(rest) == 0 || rest[0] != '[' {
		return Record{}, false
	}
	close := bytes.IndexByte(rest, ']')
	if close < 0 {
		return Record{}, false
	}
	ts, ok := parseCLFTime(rest[1:close])
	if !ok {
		return Record{}, false
	}
	rest = rest[close+1:]
	if len(rest) == 0 || rest[0] != ' ' {
		return Record{}, false
	}
	rest = rest[1:]

	// "method uri protocol" — exactly two spaces inside the quotes, mirroring
	// strings.Split(req, " ") == 3 parts (empty parts allowed).
	if len(rest) == 0 || rest[0] != '"' {
		return Record{}, false
	}
	endQuote := bytes.IndexByte(rest[1:], '"')
	if endQuote < 0 {
		return Record{}, false
	}
	req := rest[1 : 1+endQuote]
	rest = rest[endQuote+2:]
	sp1 := bytes.IndexByte(req, ' ')
	if sp1 < 0 {
		return Record{}, false
	}
	sp2 := bytes.IndexByte(req[sp1+1:], ' ')
	if sp2 < 0 {
		return Record{}, false
	}
	sp2 += sp1 + 1
	if bytes.IndexByte(req[sp2+1:], ' ') >= 0 {
		return Record{}, false
	}

	// status bytes — the strict parser TrimLefts spaces then applies
	// strings.Fields, which splits on any Unicode whitespace. The fast path
	// handles the common charset (digits, '-', spaces) and defers anything
	// else (tabs, NBSP, stray letters) to the reference parser.
	status, byteCount, ok := parseStatusBytesTail(rest)
	if !ok {
		return Record{}, false
	}

	return Record{
		Host:     in.str(fields[0]),
		Ident:    fieldString(fields[1]),
		AuthUser: fieldString(fields[2]),
		Time:     ts,
		Method:   fieldString(req[:sp1]),
		URI:      in.str(req[sp1+1 : sp2]),
		Protocol: fieldString(req[sp2+1:]),
		Status:   status,
		Bytes:    byteCount,
	}, true
}

// fieldString converts a parsed field to a string, interning the tokens
// that dominate real access logs ("-", the standard methods, the protocol
// versions) so the conversion is allocation-free for them. The switch on
// string(b) with constant cases does not allocate.
func fieldString(b []byte) string {
	switch string(b) {
	case "-":
		return "-"
	case "":
		return ""
	case "GET":
		return "GET"
	case "POST":
		return "POST"
	case "HEAD":
		return "HEAD"
	case "PUT":
		return "PUT"
	case "DELETE":
		return "DELETE"
	case "OPTIONS":
		return "OPTIONS"
	case "HTTP/1.1":
		return "HTTP/1.1"
	case "HTTP/1.0":
		return "HTTP/1.0"
	case "HTTP/2.0":
		return "HTTP/2.0"
	}
	return string(b)
}

// parseStatusBytesTail parses the trailing `status bytes` fields. It accepts
// only space-separated fields made of digits and '-', with the same value
// rules as ParseRecord (status 100..599; bytes a non-negative integer or
// "-" for -1).
func parseStatusBytesTail(rest []byte) (status int, byteCount int64, ok bool) {
	var f1, f2 []byte
	field := 0
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		switch {
		case c == ' ':
			continue
		case (c >= '0' && c <= '9') || c == '-':
			j := i
			for j < len(rest) && rest[j] != ' ' {
				c := rest[j]
				if (c < '0' || c > '9') && c != '-' {
					return 0, 0, false
				}
				j++
			}
			switch field {
			case 0:
				f1 = rest[i:j]
			case 1:
				f2 = rest[i:j]
			default:
				return 0, 0, false
			}
			field++
			i = j - 1
		default:
			return 0, 0, false
		}
	}
	if field != 2 {
		return 0, 0, false
	}
	status, err := parseUintBytes(f1)
	if err || status < 100 || status > 599 {
		return 0, 0, false
	}
	byteCount = -1
	if !(len(f2) == 1 && f2[0] == '-') {
		b, err := parseUintBytes(f2)
		if err {
			return 0, 0, false
		}
		byteCount = int64(b)
	}
	return status, byteCount, true
}

// parseUintBytes mirrors parseUint on bytes (bad=true on any deviation).
func parseUintBytes(s []byte) (n int, bad bool) {
	if len(s) == 0 {
		return 0, true
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, true
		}
		n = n*10 + int(c-'0')
		if n > 1<<40 {
			return 0, true
		}
	}
	return n, false
}

// clfMonths maps the canonical month abbreviations of TimeLayout. The
// reference parser also accepts case variants ("JAN"); those fall back.
func clfMonth(a, b, c byte) (time.Month, bool) {
	switch {
	case a == 'J' && b == 'a' && c == 'n':
		return time.January, true
	case a == 'F' && b == 'e' && c == 'b':
		return time.February, true
	case a == 'M' && b == 'a' && c == 'r':
		return time.March, true
	case a == 'A' && b == 'p' && c == 'r':
		return time.April, true
	case a == 'M' && b == 'a' && c == 'y':
		return time.May, true
	case a == 'J' && b == 'u' && c == 'n':
		return time.June, true
	case a == 'J' && b == 'u' && c == 'l':
		return time.July, true
	case a == 'A' && b == 'u' && c == 'g':
		return time.August, true
	case a == 'S' && b == 'e' && c == 'p':
		return time.September, true
	case a == 'O' && b == 'c' && c == 't':
		return time.October, true
	case a == 'N' && b == 'o' && c == 'v':
		return time.November, true
	case a == 'D' && b == 'e' && c == 'c':
		return time.December, true
	}
	return 0, false
}

func num2(a, b byte) (int, bool) {
	if a < '0' || a > '9' || b < '0' || b > '9' {
		return 0, false
	}
	return int(a-'0')*10 + int(b-'0'), true
}

// daysIn mirrors time.Parse's day-of-month validation.
func daysIn(m time.Month, year int) int {
	switch m {
	case time.April, time.June, time.September, time.November:
		return 30
	case time.February:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	default:
		return 31
	}
}

// cachedZone is one fabricated fixed-offset Location. Sharing one *Location
// across records is behaviorally identical to time.Parse's per-call
// time.FixedZone (same name, same offset).
type cachedZone struct {
	offset int
	loc    *time.Location
}

// zoneCache holds every Location FixedZone has made, up to maxFixedZones
// offsets, in a slice that is never changed once published: a log carries one
// zone, a merged one a few, and each offset keeps one Location for the life of
// the process.
var zoneCache atomic.Pointer[[]cachedZone]

const maxFixedZones = 64

// FixedZone returns the unnamed fixed-offset Location the parser gives a time
// whose offset, offset seconds east of UTC, is not the local zone's. It is
// the same *Location every call for one offset, so a caller that keeps only a
// time's instant and offset (core's Tail does) rebuilds a Time that is == to
// the parsed one. Safe for concurrent use.
func FixedZone(offset int) *time.Location {
	for {
		p := zoneCache.Load()
		var zones []cachedZone
		if p != nil {
			zones = *p
		}
		for i := range zones {
			if zones[i].offset == offset {
				return zones[i].loc
			}
		}
		loc := time.FixedZone("", offset)
		if len(zones) >= maxFixedZones {
			return loc
		}
		grown := append(zones[:len(zones):len(zones)], cachedZone{offset: offset, loc: loc})
		if zoneCache.CompareAndSwap(p, &grown) {
			return loc
		}
	}
}

// parseCLFTime is the hand-rolled fixed-format parser for TimeLayout
// ("02/Jan/2006:15:04:05 -0700"). It replaces time.Parse on the ingestion
// hot path; any shape or range deviation returns ok=false and the caller
// falls back to the strict parser. For accepted inputs it reproduces
// time.Parse exactly, including the local-zone adoption rule: when the
// parsed offset matches the local zone's offset at that instant, the
// returned Time is in time.Local, otherwise in a fabricated fixed zone.
func parseCLFTime(b []byte) (time.Time, bool) {
	// 02/Jan/2006:15:04:05 -0700
	// 0123456789012345678901234 5
	if len(b) != 26 ||
		b[2] != '/' || b[6] != '/' || b[11] != ':' ||
		b[14] != ':' || b[17] != ':' || b[20] != ' ' {
		return time.Time{}, false
	}
	day, ok1 := num2(b[0], b[1])
	month, ok2 := clfMonth(b[3], b[4], b[5])
	yHi, ok3 := num2(b[7], b[8])
	yLo, ok4 := num2(b[9], b[10])
	hour, ok5 := num2(b[12], b[13])
	min, ok6 := num2(b[15], b[16])
	sec, ok7 := num2(b[18], b[19])
	zh, ok8 := num2(b[22], b[23])
	zm, ok9 := num2(b[24], b[25])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 && ok8 && ok9) {
		return time.Time{}, false
	}
	year := yHi*100 + yLo
	if day < 1 || day > daysIn(month, year) ||
		hour > 23 || min > 59 || sec > 59 || zh > 23 || zm > 59 {
		return time.Time{}, false
	}
	offset := (zh*60 + zm) * 60
	switch b[21] {
	case '+':
	case '-':
		offset = -offset
	default:
		return time.Time{}, false
	}
	t := time.Date(year, month, day, hour, min, sec, 0, time.UTC).
		Add(-time.Duration(offset) * time.Second)
	if _, localOff := t.In(time.Local).Zone(); localOff == offset {
		return t.In(time.Local), true
	}
	return t.In(FixedZone(offset)), true
}
