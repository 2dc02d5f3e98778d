package webserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/eval"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

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
	links := ExtractLinks(string(body))
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
	srv := httptest.NewServer(AccessLogWith(site, sink, LogOptions{Now: clock.Now}))
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
	for _, rec := range recs {
		if _, err := clf.ParseCombinedRecord(rec.CombinedString()); err != nil {
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

func TestExtractLinks(t *testing.T) {
	body := `<a href="/a.html">a</a> <img src="x"> <a href="/b.html">b</a> <a href="">empty</a>`
	got := ExtractLinks(body)
	if len(got) != 2 || got[0] != "/a.html" || got[1] != "/b.html" {
		t.Errorf("links = %v", got)
	}
	if got := ExtractLinks("no links here"); len(got) != 0 {
		t.Errorf("links = %v", got)
	}
	if got := ExtractLinks(`<a href="/unterminated`); len(got) != 0 {
		t.Errorf("links = %v", got)
	}
}

func TestBrowseValidation(t *testing.T) {
	if _, err := Browse(nil, "", BrowseConfig{}); err == nil {
		t.Error("no entries accepted")
	}
	if _, err := Browse(nil, "", BrowseConfig{Entries: []string{"/x"}}); err == nil {
		t.Error("nil rng accepted")
	}
}

// The full loop: live agents browse the real HTTP site; the middleware's log
// is processed by the reactive pipeline; reconstructed sessions are scored
// against the agents' client-side ground truth.
func TestLiveBrowseEndToEnd(t *testing.T) {
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 60, AvgOutDegree: 5, StartPageFraction: 0.1,
		Model: webgraph.ModelUniform, EnsureReachable: true,
	}, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	sink := &CollectSink{}
	clock := &fakeClock{now: time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)}
	srv := httptest.NewServer(AccessLogWith(NewSite(g), sink, LogOptions{Now: clock.Now}))
	defer srv.Close()

	var entries []string
	for _, p := range g.StartPages() {
		entries = append(entries, g.Label(p))
	}

	// All agents share the loopback IP, so identity comes from the
	// User-Agent header; the pipeline below keys users the same way.
	var real []session.Session
	totalFetched, totalCached := 0, 0
	for agentID := 0; agentID < 20; agentID++ {
		ua := fmt.Sprintf("live-agent-%d", agentID)
		res, err := Browse(http.DefaultClient, srv.URL, BrowseConfig{
			Entries: entries,
			STP:     0.08, LPP: 0.30, NIP: 0.30,
			MaxRequests: 60,
			Rng:         rand.New(rand.NewSource(int64(agentID))),
			UserAgent:   ua,
		})
		if err != nil {
			t.Fatal(err)
		}
		totalFetched += res.Fetched
		totalCached += res.CacheHits
		for _, uris := range res.RealSessions {
			s := session.Session{User: ua}
			for i, uri := range uris {
				page, ok := g.PageByURI(uri)
				if !ok {
					t.Fatalf("agent visited unknown URI %q", uri)
				}
				s.Entries = append(s.Entries, session.Entry{
					Page: page,
					Time: clock.now.Add(time.Duration(i) * time.Second),
				})
			}
			real = append(real, s)
		}
	}

	records := sink.Records()
	if len(records) != totalFetched {
		t.Fatalf("middleware logged %d records, agents fetched %d", len(records), totalFetched)
	}
	if totalCached == 0 {
		t.Error("no cache hits; the client-side cache is not working")
	}

	pipeline, err := core.NewPipeline(core.Config{
		Graph: g,
		Key:   func(r clf.Record) string { return r.UserAgent },
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := pipeline.ProcessRecords(records)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Users != 20 {
		t.Errorf("users = %d, want 20", out.Stats.Users)
	}
	if out.Stats.Sessions == 0 {
		t.Fatal("no sessions reconstructed from live traffic")
	}
	acc := eval.Score(real, out.Sessions)
	if acc.Real == 0 || acc.Captured == 0 {
		t.Fatalf("live accuracy degenerate: %s", acc)
	}
	t.Logf("live end-to-end: %d records, %d sessions, accuracy %s",
		len(records), out.Stats.Sessions, acc)
}
