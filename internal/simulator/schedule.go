package simulator

import (
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/webgraph"
)

// Request is one page fetch a simulated user would issue against a live
// server: who, what, navigated-from-where, and when. A schedule is the
// real-time replay form of a Result — the same request sequence Log renders
// as a finished access log, but addressed to an HTTP client instead of a
// file.
type Request struct {
	// User is the simulated client identity (the agent's synthetic IP).
	User string
	// URI is the page path to fetch.
	URI string
	// Referer is the URI navigated from, or clf.NoField for session-opening
	// requests.
	Referer string
	// At is the simulated absolute time of the request.
	At time.Time
}

// Schedule flattens the run into one time-ordered request sequence, Log's
// records in Log's order, ready for a load generator to replay against a
// running server.
func (r *Result) Schedule(g *webgraph.Graph) []Request {
	reqs := make([]Request, 0, r.requests())
	r.render(g, func(rec clf.Record) {
		reqs = append(reqs, Request{User: rec.Host, URI: rec.URI, Referer: rec.Referer, At: rec.Time})
	})
	return reqs
}
