package clf

import "strings"

// Filter decides whether a record survives data cleaning. Filters return
// true to KEEP the record.
//
// The paper's data-processing phase first "filters relevant information from
// the logs": session reconstruction wants exactly one record per page view,
// so embedded resources (images, stylesheets), failed requests, non-GET
// methods, and crawler traffic are dropped before user identification.
type Filter func(Record) bool

// isResourcePath reports whether path (query already stripped) ends in one
// of the resource suffixes its switch lists. It runs on every ingested
// record, so instead of lowering the path and probing each suffix it
// extracts the extension of the final path segment (bounded at
// longestResourceSuffix bytes), ASCII-lowers it into a stack buffer, and
// matches with one switch. Paths without a dot in the last segment — the
// overwhelmingly common page-view case — exit after a single backward scan.
func isResourcePath(path string) bool {
	dot := -1
	for i := len(path) - 1; i >= 0; i-- {
		switch path[i] {
		case '.':
			dot = i
		case '/':
		default:
			continue
		}
		break
	}
	if dot < 0 || len(path)-dot > longestResourceSuffix {
		return false
	}
	var ext [longestResourceSuffix]byte
	n := 0
	for i := dot; i < len(path); i++ {
		c := path[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		ext[n] = c
		n++
	}
	switch string(ext[:n]) {
	case ".gif", ".jpg", ".jpeg", ".png", ".ico", ".bmp", ".svg",
		".css", ".js", ".swf", ".woff", ".woff2", ".ttf",
		".mp3", ".mp4", ".avi", ".mpeg", ".pdf", ".zip", ".gz":
		return true
	}
	return false
}

// longestResourceSuffix bounds the extension buffer in isResourcePath; it
// must cover the longest suffix in its switch (".woff2").
const longestResourceSuffix = 6

// isRobotsPath reports whether path (query already stripped) is /robots.txt
// in any letter case.
func isRobotsPath(path string) bool {
	return len(path) == len("/robots.txt") && strings.EqualFold(path, "/robots.txt")
}

// StandardCleaning is the conventional WUM cleaning pipeline: successful GET
// page views only, no embedded resources, no robots.txt probes — the same
// verdicts as the chain of one-test filters filter_test.go holds it to.
func StandardCleaning() Filter { return standardCleaning }

// standardCleaning is that chain as one body, because it runs on every
// ingested line: one Record copy (the call) and one query strip per line,
// where a chain costs a copy per link and a strip per path test.
func standardCleaning(r Record) bool {
	// The status test is spelled out: a value-receiver method would copy
	// the whole Record once more.
	if r.Status < 200 || r.Status >= 300 || r.Method != "GET" {
		return false
	}
	path := stripQuery(r.URI)
	return !isResourcePath(path) && !isRobotsPath(path)
}

// Apply filters records in order, returning the survivors and the number
// dropped. The input slice is not modified.
func Apply(records []Record, f Filter) (kept []Record, dropped int) {
	kept = make([]Record, 0, len(records))
	for _, r := range records {
		if f(r) {
			kept = append(kept, r)
		} else {
			dropped++
		}
	}
	return kept, dropped
}

// stripQuery drops the query string and fragment, leaving the path. Two
// IndexByte probes beat one IndexAny: IndexByte is vectorized, and most URIs
// contain neither delimiter.
func stripQuery(uri string) string {
	if i := strings.IndexByte(uri, '?'); i >= 0 {
		uri = uri[:i]
	}
	if i := strings.IndexByte(uri, '#'); i >= 0 {
		uri = uri[:i]
	}
	return uri
}
