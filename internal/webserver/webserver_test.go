package webserver

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/webgraph"
)

// CollectSink is a concurrency-safe in-memory LogSink.
type CollectSink struct {
	mu      sync.Mutex
	records []clf.Record
}

// Record implements LogSink.
func (c *CollectSink) Record(r clf.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.records = append(c.records, r)
}

// Records returns a copy of everything collected so far.
func (c *CollectSink) Records() []clf.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]clf.Record(nil), c.records...)
}

func figureSite(t *testing.T) (*webgraph.Graph, map[string]webgraph.PageID, *Site) {
	t.Helper()
	g, ids := webgraph.PaperFigure1()
	return g, ids, NewSite(g)
}

func TestSiteServesPagesWithLinks(t *testing.T) {
	g, ids, site := figureSite(t)
	srv := httptest.NewServer(site)
	defer srv.Close()

	resp, err := http.Get(srv.URL + g.Label(ids["P13"]))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	links := extractLinks(string(body))
	if len(links) != 2 {
		t.Fatalf("P13 links = %v, want its 2 successors", links)
	}
	want := map[string]bool{g.Label(ids["P34"]): true, g.Label(ids["P49"]): true}
	for _, l := range links {
		if !want[l] {
			t.Errorf("unexpected link %q", l)
		}
	}
}

func TestSiteRootAndRobotsAndNotFound(t *testing.T) {
	_, _, site := figureSite(t)
	srv := httptest.NewServer(site)
	defer srv.Close()

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Errorf("root status = %d, want 302", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc == "" {
		t.Error("root redirect has no Location")
	}

	resp, err = http.Get(srv.URL + "/robots.txt")
	if err != nil {
		t.Fatal(err)
	}
	robots, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(robots), "User-agent") {
		t.Errorf("robots.txt = %q", robots)
	}

	resp, err = http.Get(srv.URL + "/no-such-page.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing page status = %d", resp.StatusCode)
	}
}

// fakeClock hands out strictly increasing timestamps ~2 minutes apart so the
// CLF log is meaningful to the time rules despite requests arriving within
// milliseconds.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(2 * time.Minute)
	return c.now
}

func TestAccessLogProducesParseableCLF(t *testing.T) {
	g, ids, site := figureSite(t)
	sink := &CollectSink{}
	clock := &fakeClock{now: time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)}
	srv := httptest.NewServer(AccessLogWith(site, sink, LogOptions{now: clock.Now}))
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL+g.Label(ids["P1"]), nil)
	req.Header.Set("User-Agent", "test-browser/2.0")
	req.Header.Set("Referer", "/elsewhere.html")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if _, err := http.Get(srv.URL + "/missing.html"); err != nil {
		t.Fatal(err)
	}

	recs := sink.Records()
	if len(recs) != 2 {
		t.Fatalf("recorded %d records", len(recs))
	}
	r := recs[0]
	if r.URI != g.Label(ids["P1"]) || r.Status != 200 || r.Method != "GET" {
		t.Errorf("record = %+v", r)
	}
	if r.Bytes <= 0 {
		t.Errorf("bytes = %d", r.Bytes)
	}
	if r.Referer != "/elsewhere.html" || r.UserAgent != "test-browser/2.0" {
		t.Errorf("headers = %q / %q", r.Referer, r.UserAgent)
	}
	if recs[1].Status != 404 {
		t.Errorf("404 status not captured: %+v", recs[1])
	}
	if !recs[0].Time.Before(recs[1].Time) {
		t.Error("fake clock not increasing")
	}
	// Every record round-trips through the combined format.
	var buf bytes.Buffer
	w := clf.NewCombinedWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if _, err := clf.ParseCombinedRecord(line); err != nil {
			t.Errorf("record does not re-parse: %v", err)
		}
	}
}

func TestWriterSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewWriterSink(clf.NewCombinedWriter(&buf))
	s.Record(clf.Record{Host: "1.1.1.1", Time: time.Unix(0, 0).UTC(),
		Method: "GET", URI: "/x", Protocol: "HTTP/1.1", Status: 200, Bytes: 1})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if !strings.Contains(buf.String(), `"GET /x HTTP/1.1"`) {
		t.Errorf("output = %q", buf.String())
	}
	bad := NewWriterSink(clf.NewWriter(failWriter{}))
	for i := 0; i < 10000; i++ {
		bad.Record(clf.Record{Host: "1.1.1.1", Time: time.Unix(0, 0).UTC(),
			Method: "GET", URI: "/x", Protocol: "HTTP/1.1", Status: 200})
	}
	if bad.Flush() == nil {
		t.Error("writer error not surfaced")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("closed") }

// extractLinks returns the href targets of a page's anchors, in order.
func extractLinks(body string) []string {
	var out []string
	for {
		_, rest, ok := strings.Cut(body, `href="`)
		if !ok {
			return out
		}
		link, after, ok := strings.Cut(rest, `"`)
		if !ok {
			return out
		}
		if link != "" {
			out = append(out, link)
		}
		body = after
	}
}

func TestExtractLinks(t *testing.T) {
	body := `<a href="/a.html">a</a> <img src="x"> <a href="/b.html">b</a> <a href="">empty</a>`
	got := extractLinks(body)
	if len(got) != 2 || got[0] != "/a.html" || got[1] != "/b.html" {
		t.Errorf("links = %v", got)
	}
	if got := extractLinks("no links here"); len(got) != 0 {
		t.Errorf("links = %v", got)
	}
	if got := extractLinks(`<a href="/unterminated`); len(got) != 0 {
		t.Errorf("links = %v", got)
	}
}
