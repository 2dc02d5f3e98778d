package clf

import (
	"strings"
	"testing"
	"time"
)

func rec(method, uri string, status int) Record {
	return Record{
		Host: "10.0.0.1", Time: time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC),
		Method: method, URI: uri, Protocol: "HTTP/1.1", Status: status, Bytes: 1,
	}
}

// The filters below are the one-test links of StandardCleaning's chain, and
// the user-agent filter a combined log adds for crawlers: the reference the
// fused predicate is held to.

// SuccessOnly keeps records with 2xx status codes.
func SuccessOnly(r Record) bool { return r.Status >= 200 && r.Status < 300 }

// MethodGET keeps only GET requests (the paper restricts to page fetches).
func MethodGET(r Record) bool { return r.Method == "GET" }

// DropResources drops requests for embedded resources (images, scripts,
// styles, media, archives) using the conventional suffix list. Query strings
// and fragments are stripped before matching.
func DropResources(r Record) bool {
	return !isResourcePath(stripQuery(r.URI))
}

// DropRobots drops requests for /robots.txt (a crawler signature; CLF lacks
// a user-agent field, so the path is the only available signal).
func DropRobots(r Record) bool {
	return !isRobotsPath(stripQuery(r.URI))
}

// DropUserAgentContaining returns a filter dropping records whose combined-
// format user agent contains any of the given substrings
// (case-insensitive) — the standard way to remove crawler traffic when the
// log carries user agents. Common-format records (no user agent) are kept.
func DropUserAgentContaining(substrings ...string) Filter {
	lowered := make([]string, len(substrings))
	for i, s := range substrings {
		lowered[i] = strings.ToLower(s)
	}
	return func(r Record) bool {
		if r.UserAgent == "" || r.UserAgent == NoField {
			return true
		}
		ua := strings.ToLower(r.UserAgent)
		for _, s := range lowered {
			if strings.Contains(ua, s) {
				return false
			}
		}
		return true
	}
}

// Chain combines filters; a record survives only if every filter keeps it.
func Chain(filters ...Filter) Filter {
	return func(r Record) bool {
		for _, f := range filters {
			if !f(r) {
				return false
			}
		}
		return true
	}
}

func TestBasicFilters(t *testing.T) {
	cases := []struct {
		name string
		f    Filter
		r    Record
		keep bool
	}{
		{"SuccessOnly keeps 200", SuccessOnly, rec("GET", "/x", 200), true},
		{"SuccessOnly keeps 204", SuccessOnly, rec("GET", "/x", 204), true},
		{"SuccessOnly drops 404", SuccessOnly, rec("GET", "/x", 404), false},
		{"SuccessOnly drops 301", SuccessOnly, rec("GET", "/x", 301), false},
		{"MethodGET keeps GET", MethodGET, rec("GET", "/x", 200), true},
		{"MethodGET drops POST", MethodGET, rec("POST", "/x", 200), false},
		{"MethodGET drops HEAD", MethodGET, rec("HEAD", "/x", 200), false},
		{"DropResources drops gif", DropResources, rec("GET", "/img/logo.gif", 200), false},
		{"DropResources drops uppercase JPG", DropResources, rec("GET", "/a/B.JPG", 200), false},
		{"DropResources drops css with query", DropResources, rec("GET", "/s.css?v=2", 200), false},
		{"DropResources keeps html", DropResources, rec("GET", "/page.html", 200), true},
		{"DropResources keeps path containing .gif dir", DropResources, rec("GET", "/x.gif/page", 200), true},
		{"DropRobots drops robots.txt", DropRobots, rec("GET", "/robots.txt", 200), false},
		{"DropRobots keeps others", DropRobots, rec("GET", "/robots.html", 200), true},
	}
	for _, c := range cases {
		if got := c.f(c.r); got != c.keep {
			t.Errorf("%s: got %v, want %v", c.name, got, c.keep)
		}
	}
}

func TestChainAndApply(t *testing.T) {
	f := Chain(SuccessOnly, MethodGET, DropResources)
	records := []Record{
		rec("GET", "/a.html", 200),  // kept
		rec("GET", "/a.gif", 200),   // resource
		rec("POST", "/a.html", 200), // method
		rec("GET", "/a.html", 404),  // status
		rec("GET", "/index.php", 200) /* kept */}
	kept, dropped := Apply(records, f)
	if len(kept) != 2 || dropped != 3 {
		t.Fatalf("kept %d dropped %d, want 2/3", len(kept), dropped)
	}
	if kept[0].URI != "/a.html" || kept[1].URI != "/index.php" {
		t.Errorf("kept order wrong: %v", kept)
	}
}

func TestStandardCleaning(t *testing.T) {
	f := StandardCleaning()
	if !f(rec("GET", "/page.html", 200)) {
		t.Error("standard cleaning dropped a page view")
	}
	for _, bad := range []Record{
		rec("GET", "/x.png", 200),
		rec("POST", "/form", 200),
		rec("GET", "/gone.html", 404),
		rec("GET", "/robots.txt", 200),
	} {
		if f(bad) {
			t.Errorf("standard cleaning kept %q %q %d", bad.Method, bad.URI, bad.Status)
		}
	}
}

// TestStandardCleaningMatchesChain holds the fused predicate to the chain it
// stands for, over the cross product of the field values each link looks at.
func TestStandardCleaningMatchesChain(t *testing.T) {
	fused := StandardCleaning()
	chain := Chain(SuccessOnly, MethodGET, DropResources, DropRobots)
	uris := []string{
		"/", "/page.html", "/p/17.html?x=1.png", "/a.b/c", "/x.PNG", "/s.css?v=2", "/s.js#top",
		"/robots.txt", "/ROBOTS.TXT?probe", "/robots.txt#x", "/robots.txt/", "/dir/robots.txt",
		"/x.woff2", "/x.woff22", "", "?", "#",
	}
	n := 0
	for _, method := range []string{"GET", "get", "POST", "HEAD", ""} {
		for _, status := range []int{0, 199, 200, 204, 299, 300, 304, 404, 500} {
			for _, uri := range uris {
				r := rec(method, uri, status)
				if got, want := fused(r), chain(r); got != want {
					t.Errorf("%s %q %d: fused keeps %v, chain keeps %v", method, uri, status, got, want)
				}
				n++
			}
		}
	}
	if n < 500 {
		t.Fatalf("only %d combinations", n)
	}
}

func TestDropUserAgentContaining(t *testing.T) {
	f := DropUserAgentContaining("Bot", "crawler")
	r := rec("GET", "/x", 200)
	if !f(r) {
		t.Error("common-format record dropped")
	}
	r.UserAgent = "-"
	if !f(r) {
		t.Error("dash user agent dropped")
	}
	r.UserAgent = "Mozilla/5.0"
	if !f(r) {
		t.Error("browser dropped")
	}
	r.UserAgent = "GoogleBOT/2.1"
	if f(r) {
		t.Error("bot kept despite case-insensitive match")
	}
	r.UserAgent = "sitecrawler/1.0"
	if f(r) {
		t.Error("crawler kept")
	}
}
