package webserver

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/webgraph"
)

// escapingGraph is a hand-built site whose labels hold every byte the
// renderer must escape, in titles and in links.
func escapingGraph(t testing.TB) *webgraph.Graph {
	t.Helper()
	b := webgraph.NewBuilder(4)
	for p, label := range []string{`/a<b>.html`, `/tom&jerry.html`, `/say "hi".html`, `/two words.html`} {
		if err := b.SetLabel(webgraph.PageID(p), label); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]webgraph.PageID{{0, 1}, {0, 2}, {0, 3}, {1, 0}, {2, 3}, {3, 0}, {3, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func paperGraph(t testing.TB) *webgraph.Graph {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.PaperTopology(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func siteGraphs(t *testing.T) map[string]*webgraph.Graph {
	t.Helper()
	sparse, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 120, AvgOutDegree: 3, StartPageFraction: 0.1,
	}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*webgraph.Graph{"paper": paperGraph(t), "sparse": sparse, "escaping": escapingGraph(t)}
}

// pageRequest asks for a page by its label as r.URL.Path, whatever bytes the
// label holds.
func pageRequest(method, label string) *http.Request {
	return &http.Request{Method: method, URL: &url.URL{Path: label}, Proto: "HTTP/1.1",
		Header: http.Header{}, RemoteAddr: "10.0.0.7:4711"}
}

// The bytes a page request gets are render's, with the length that goes
// with them, on every page of every topology.
func TestSiteServesRenderedBytes(t *testing.T) {
	for name, g := range siteGraphs(t) {
		site := NewSite(g)
		for _, p := range g.Pages() {
			want := site.render(nil, p)
			for _, method := range []string{http.MethodGet, http.MethodHead} {
				rr := httptest.NewRecorder()
				site.ServeHTTP(rr, pageRequest(method, g.Label(p)))
				if rr.Code != http.StatusOK {
					t.Fatalf("%s page %d %s: status %d", name, p, method, rr.Code)
				}
				if !bytes.Equal(rr.Body.Bytes(), want) {
					t.Fatalf("%s page %d %s: body differs from render", name, p, method)
				}
				h := rr.Result().Header
				if got := h.Get("Content-Length"); got != strconv.Itoa(len(want)) {
					t.Errorf("%s page %d: Content-Length %q for %d bytes", name, p, got, len(want))
				}
				if got := h.Get("Content-Type"); got != "text/html; charset=utf-8" {
					t.Errorf("%s page %d: Content-Type %q", name, p, got)
				}
			}
		}
	}
}

// The renderer's bytes themselves, escaping included, pinned to what the
// per-request renderer wrote before pages were built at start-up.
func TestSiteRenderEscapes(t *testing.T) {
	site := NewSite(escapingGraph(t))
	const want = "<!DOCTYPE html>\n<html><head><title>/a&lt;b&gt;.html</title></head><body>\n" +
		"<h1>/a&lt;b&gt;.html</h1>\n<ul>\n" +
		"<li><a href=\"/tom&amp;jerry.html\">/tom&amp;jerry.html</a></li>\n" +
		"<li><a href=\"/say &#34;hi&#34;.html\">/say &#34;hi&#34;.html</a></li>\n" +
		"<li><a href=\"/two words.html\">/two words.html</a></li>\n" +
		"</ul></body></html>\n"
	if got := string(site.render(nil, 0)); got != want {
		t.Errorf("render(0) =\n%s\nwant\n%s", got, want)
	}
}

// Over a real connection a HEAD is answered 200 with the page's length and
// no body, and a GET with exactly the rendered bytes.
func TestSiteHeadOverHTTP(t *testing.T) {
	g := paperGraph(t)
	site := NewSite(g)
	srv := httptest.NewServer(site)
	defer srv.Close()
	page := g.StartPages()[0]
	want := site.render(nil, page)

	resp, err := http.Head(srv.URL + g.Label(page))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 || resp.ContentLength != int64(len(want)) {
		t.Errorf("HEAD: status %d, %d body bytes, Content-Length %d; want 200, 0, %d",
			resp.StatusCode, len(body), resp.ContentLength, len(want))
	}
	resp, err = http.Get(srv.URL + g.Label(page))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body, want) || resp.ContentLength != int64(len(want)) {
		t.Errorf("GET: %d bytes, Content-Length %d; want the %d rendered bytes", len(body), resp.ContentLength, len(want))
	}
}

// The cached slices are shared by every request and written by none: 64
// goroutines walking every page (run under -race) all read render's bytes.
func TestSiteConcurrentRequestsShareBytes(t *testing.T) {
	g := paperGraph(t)
	site := NewSite(g)
	want := make([][]byte, g.NumPages())
	for _, p := range g.Pages() {
		want[p] = site.render(nil, p)
	}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range g.Pages() {
				rr := httptest.NewRecorder()
				site.ServeHTTP(rr, pageRequest(http.MethodGet, g.Label(p)))
				if !bytes.Equal(rr.Body.Bytes(), want[p]) || rr.Result().ContentLength != int64(len(want[p])) {
					t.Errorf("page %d: concurrent request got different bytes", p)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// reuseWriter is a ResponseWriter that, like net/http's, hands every call the
// same header map and copies the body elsewhere.
type reuseWriter struct {
	h http.Header
	n int
}

func (w *reuseWriter) Header() http.Header         { return w.h }
func (w *reuseWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *reuseWriter) WriteHeader(int)             {}

// A page request allocates nothing in the site, and at most the wrapper's
// status-capturing writer through the access log, the CLF writer and a flush.
func TestRequestPathAllocations(t *testing.T) {
	g := paperGraph(t)
	site := NewSite(g)
	reqs := make([]*http.Request, 0, g.NumPages())
	for _, p := range g.Pages() {
		r := pageRequest(http.MethodGet, g.Label(p))
		r.Header.Set("X-Forwarded-For", "10.1.2.3")
		r.Header.Set("User-Agent", "Mozilla/5.0 (X11; Linux x86_64)")
		reqs = append(reqs, r)
	}
	w := &reuseWriter{h: http.Header{}}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		site.ServeHTTP(w, reqs[i%len(reqs)])
		i++
	}); n != 0 {
		t.Errorf("Site.ServeHTTP: %v allocs per page request, want 0", n)
	}
	for _, combined := range []bool{false, true} {
		cw := clf.NewWriter(io.Discard)
		if combined {
			cw = clf.NewCombinedWriter(io.Discard)
		}
		sink := NewWriterSink(cw)
		logged := AccessLogWith(site, sink, LogOptions{TrustForwardedFor: true})
		if n := testing.AllocsPerRun(1000, func() {
			logged.ServeHTTP(w, reqs[i%len(reqs)])
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			i++
		}); n > 2 {
			t.Errorf("AccessLogWith(Site) + WriterSink (combined=%v): %v allocs per request, want <= 2", combined, n)
		}
	}
}

// BenchmarkSiteOverLoopback is the request path as a client sees it: the
// site behind the access log and a CLF writer on a file, flushed per request
// as serve does, behind httptest's real http.Server on 127.0.0.1, one
// keep-alive client walking the pages. Its B/op and allocs/op include
// net/http's own, on both sides of the connection.
func BenchmarkSiteOverLoopback(b *testing.B) {
	g := paperGraph(b)
	f, err := os.Create(filepath.Join(b.TempDir(), "access.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	sink := NewWriterSink(clf.NewWriter(f))
	srv := httptest.NewServer(AccessLogWith(NewSite(g), flushEach{sink}, LogOptions{}))
	defer srv.Close()

	urls := make([]string, 0, g.NumPages())
	for _, p := range g.Pages() {
		urls = append(urls, srv.URL+g.Label(p))
	}
	client := srv.Client()
	get := func(u string) {
		resp, err := client.Get(u)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get(urls[0]) // dial outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(urls[i%len(urls)])
	}
	b.StopTimer()
	if err := sink.Err(); err != nil {
		b.Fatal(err)
	}
}

// flushEach flushes the sink after every record, as serve's does.
type flushEach struct{ *WriterSink }

func (f flushEach) Record(r clf.Record) {
	f.WriterSink.Record(r)
	f.WriterSink.Flush()
}
