// Package webserver serves a webgraph topology as a real website over
// net/http and writes the Common/Combined Log Format access log that the
// reactive pipeline consumes. It closes the paper's loop end to end: real
// HTTP requests from real clients produce a real server log, which
// internal/core then turns back into sessions.
//
// The handler renders every page as minimal HTML whose anchor tags are
// exactly the page's out-edges, so a crawler or live agent navigating the
// site experiences the same topology the heuristics consult.
package webserver

import (
	"bytes"
	"fmt"
	"html"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/webgraph"
)

// Site is an http.Handler serving a topology as HTML pages.
type Site struct {
	g *webgraph.Graph
	// pages[p] is page p's body and lengths[p] its Content-Length header
	// value. NewSite builds both and nothing writes them afterwards, so
	// every request shares them without synchronisation.
	pages   [][]byte
	lengths [][]string
}

// ctHTML is the page responses' shared, never-written Content-Type value.
var ctHTML = []string{"text/html; charset=utf-8"}

// NewSite returns a handler for the topology. Page URIs are the graph's
// labels; "/" redirects to the first start page; "/robots.txt" is served so
// crawler traffic patterns can be exercised. The graph is immutable, so
// every page is rendered here, once: about 110 B plus 50 B per out-edge each.
func NewSite(g *webgraph.Graph) *Site {
	s := &Site{g: g, pages: make([][]byte, g.NumPages()), lengths: make([][]string, g.NumPages())}
	var buf []byte
	for _, page := range g.Pages() {
		buf = s.render(buf[:0], page)
		s.pages[page] = bytes.Clone(buf)
		s.lengths[page] = []string{strconv.Itoa(len(buf))}
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Site) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/":
		starts := s.g.StartPages()
		if len(starts) == 0 {
			http.NotFound(w, r)
			return
		}
		http.Redirect(w, r, s.g.Label(starts[0]), http.StatusFound)
		return
	case "/robots.txt":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "User-agent: *\nDisallow:\n")
		return
	}
	page, ok := s.g.PageByURI(r.URL.Path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	h := w.Header()
	h["Content-Type"] = ctHTML
	h["Content-Length"] = s.lengths[page]
	w.Write(s.pages[page])
}

// render appends a page's HTML to dst: its title and one anchor per out-edge.
func (s *Site) render(dst []byte, page webgraph.PageID) []byte {
	title := html.EscapeString(s.g.Label(page))
	dst = fmt.Appendf(dst, "<!DOCTYPE html>\n<html><head><title>%s</title></head><body>\n", title)
	dst = fmt.Appendf(dst, "<h1>%s</h1>\n<ul>\n", title)
	for _, succ := range s.g.Succ(page) {
		uri := html.EscapeString(s.g.Label(succ))
		dst = fmt.Appendf(dst, "<li><a href=%q>%s</a></li>\n", uri, uri)
	}
	return append(dst, "</ul></body></html>\n"...)
}

// LogSink receives finished access-log records.
type LogSink interface {
	Record(clf.Record)
}

// WriterSink adapts a clf.Writer into a LogSink. Errors are retained and
// reported by Err (an access logger must not fail requests).
type WriterSink struct {
	mu  sync.Mutex
	w   *clf.Writer
	err error
}

// NewWriterSink wraps w.
func NewWriterSink(w *clf.Writer) *WriterSink { return &WriterSink{w: w} }

// Record implements LogSink.
func (s *WriterSink) Record(r clf.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		if err := s.w.Write(r); err != nil {
			s.err = err
		}
	}
}

// Flush drains the underlying writer.
func (s *WriterSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Reset points the sink at a new writer and clears any latched error —
// log-rotation support: the server swaps in a writer on the freshly
// reopened file and logging resumes even if the old file had gone bad.
func (s *WriterSink) Reset(w *clf.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w = w
	s.err = nil
}

// Err returns the first write error, if any.
func (s *WriterSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// LogOptions configures AccessLogWith.
type LogOptions struct {
	// now is the request clock, which tests replace; nil means time.Now.
	now func() time.Time
	// TrustForwardedFor logs the first address of an X-Forwarded-For header
	// as the client host when the header is present. Enable it only when a
	// trusted proxy (or a load generator replaying many simulated users over
	// one loopback connection pool) sets the header; for directly exposed
	// servers the header is client-controlled and must stay untrusted.
	TrustForwardedFor bool
}

// AccessLogWith wraps an http.Handler with CLF access logging: every request
// produces one clf.Record on the sink, with the client IP, timestamp,
// request line, status, byte count, Referer, and User-Agent (the last two
// populate combined-format rendering only). Every client-controlled field
// (host, URI, protocol, method, Referer, User-Agent) passes through
// clf.SanitizeRecord before reaching the sink, so a hostile request cannot
// inject log lines, tear CLF framing, or blow a field past the line cap —
// the written line always re-parses to the logged record.
func AccessLogWith(next http.Handler, sink LogSink, opts LogOptions) http.Handler {
	now := opts.now
	if now == nil {
		now = time.Now
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		at := now()
		next.ServeHTTP(cw, r)
		host := ClientIP(r, opts.TrustForwardedFor)
		uri := r.URL.RequestURI()
		sink.Record(clf.SanitizeRecord(clf.Record{
			Host:      host,
			Ident:     "-",
			AuthUser:  "-",
			Time:      at,
			Method:    r.Method,
			URI:       uri,
			Protocol:  r.Proto,
			Status:    cw.status,
			Bytes:     cw.bytes,
			Referer:   headerOrDash(r.Header.Get("Referer")),
			UserAgent: headerOrDash(r.Header.Get("User-Agent")),
		}))
	})
}

// ClientIP resolves the client address a request should be attributed to:
// the connection's remote host, or — when trustForwardedFor is set and an
// X-Forwarded-For header is present — the first address in that header (the
// originating client as recorded by a trusted proxy). Access logging and
// per-IP admission control share this resolution, so the identity that is
// rate-limited is exactly the identity that is logged and sessionized.
func ClientIP(r *http.Request, trustForwardedFor bool) string {
	host := r.RemoteAddr
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	if trustForwardedFor {
		if fwd := r.Header.Get("X-Forwarded-For"); fwd != "" {
			if i := strings.IndexByte(fwd, ','); i >= 0 {
				fwd = fwd[:i]
			}
			if fwd = strings.TrimSpace(fwd); fwd != "" {
				host = fwd
			}
		}
	}
	return host
}

func headerOrDash(v string) string {
	if v == "" {
		return clf.NoField
	}
	return v
}

// countingWriter captures the status code and body size.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// WriteHeader implements http.ResponseWriter.
func (c *countingWriter) WriteHeader(status int) {
	c.status = status
	c.ResponseWriter.WriteHeader(status)
}

// Write implements http.ResponseWriter.
func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.bytes += int64(n)
	return n, err
}
