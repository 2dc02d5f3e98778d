package clf

import (
	"strings"
)

// Combined Log Format support. The combined format extends the common
// format with two quoted fields:
//
//	host ident authuser [date] "request" status bytes "referer" "user-agent"
//
// The paper's pipeline uses the common format (referrers were not assumed
// available); combined-format support lets the same pipeline consume modern
// logs and enables the referrer-based reconstruction upper bound
// (internal/referrer). Record carries the extra fields; they are empty for
// common-format lines.

// NoField is the literal a combined log uses for an absent referer ("-").
const NoField = "-"

// HasReferer reports whether the record carries a usable referer.
func (r Record) HasReferer() bool { return r.Referer != "" && r.Referer != NoField }

// appendCombinedTo appends the record's combined-format line (without
// trailing newline) to dst, its time through last: the common-format line,
// rendered once, and the two quoted fields.
func (r Record) appendCombinedTo(dst []byte, last *stamp) []byte {
	ref, agent := r.Referer, r.UserAgent
	if ref == "" {
		ref = NoField
	}
	if agent == "" {
		agent = NoField
	}
	dst = append(r.appendTo(dst, last), ' ')
	dst = append(appendQuoted(dst, ref), ' ')
	return appendQuoted(dst, agent)
}

// appendQuoted appends s between double quotes, dropping embedded double
// quotes, which the combined format cannot represent unescaped; real servers
// escape or strip them too.
func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := strings.IndexByte(s, '"'); i >= 0; i = strings.IndexByte(s, '"') {
		dst = append(dst, s[:i]...)
		s = s[i+1:]
	}
	return append(append(dst, s...), '"')
}

// ParseCombinedRecord parses a combined-format line. The common-format
// prefix is parsed strictly; the trailing "referer" "user-agent" pair is
// required.
func ParseCombinedRecord(line string) (Record, error) {
	trimmed := strings.TrimRight(line, "\r\n")
	prefix, ref, agent, ok := splitCombinedTail(trimmed)
	if !ok {
		return Record{}, &ParseError{Line: line, Reason: "missing \"referer\" \"user-agent\" tail"}
	}
	rec, err := ParseRecord(prefix)
	if err != nil {
		return Record{}, err
	}
	rec.Referer = ref
	rec.UserAgent = agent
	return rec, nil
}

// ParseAnyRecord parses a line in either format, reporting which one it
// found (combined when the quoted tail is present).
func ParseAnyRecord(line string) (Record, bool, error) {
	if rec, err := ParseCombinedRecord(line); err == nil {
		return rec, true, nil
	}
	rec, err := ParseRecord(line)
	return rec, false, err
}

// splitCombinedTail splits `... "referer" "agent"` into the common-format
// prefix and the two unquoted tail values.
func splitCombinedTail(line string) (prefix, referer, agent string, ok bool) {
	if !strings.HasSuffix(line, `"`) {
		return "", "", "", false
	}
	body := line[:len(line)-1]
	q := strings.LastIndexByte(body, '"')
	if q < 0 {
		return "", "", "", false
	}
	agent = body[q+1:]
	body = strings.TrimRight(body[:q], " ")
	if !strings.HasSuffix(body, `"`) {
		return "", "", "", false
	}
	body = body[:len(body)-1]
	q = strings.LastIndexByte(body, '"')
	if q < 0 {
		return "", "", "", false
	}
	referer = body[q+1:]
	prefix = strings.TrimRight(body[:q], " ")
	// The request-line quotes must still be present in the prefix; otherwise
	// we just consumed them (a common-format line ending in quotes).
	if strings.Count(prefix, `"`) < 2 {
		return "", "", "", false
	}
	return prefix, referer, agent, true
}
