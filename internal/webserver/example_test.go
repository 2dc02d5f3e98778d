package webserver

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/eval"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// ExampleBrowse runs the whole paper over real HTTP: a site rendered from a
// random topology, live browsing agents (client-side cache, Referer headers,
// the four navigation behaviours) fetching from it with net/http, the CLF
// middleware writing the access log, and the reactive pipeline scored on
// that log against the agents' own ground truth. The log's clock steps two
// minutes per request, so the 30- and 10-minute rules see human pacing.
func ExampleBrowse() {
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 120, AvgOutDegree: 8, StartPageFraction: 0.08,
		Model: webgraph.ModelUniform, EnsureReachable: true,
	}, rand.New(rand.NewSource(99)))
	if err != nil {
		fmt.Println(err)
		return
	}
	sink := &CollectSink{}
	clock := &fakeClock{now: time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)}
	srv := httptest.NewServer(AccessLogWith(NewSite(g), sink, LogOptions{Now: clock.Now}))
	defer srv.Close()
	fmt.Println("site:", g)

	var entries []string
	for _, p := range g.StartPages() {
		entries = append(entries, g.Label(p))
	}
	const agents = 50
	var real []session.Session
	fetched, cached := 0, 0
	for id := 0; id < agents; id++ {
		ua := fmt.Sprintf("live-agent-%03d", id)
		res, err := Browse(http.DefaultClient, srv.URL, BrowseConfig{
			Entries: entries,
			STP:     0.06, LPP: 0.30, NIP: 0.30,
			MaxRequests: 80,
			Rng:         rand.New(rand.NewSource(int64(id))),
			UserAgent:   ua,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		fetched += res.Fetched
		cached += res.CacheHits
		for _, uris := range res.RealSessions {
			s := session.Session{User: ua}
			for i, uri := range uris {
				page, _ := g.PageByURI(uri)
				s.Entries = append(s.Entries, session.Entry{Page: page, Time: time.Unix(int64(i), 0)})
			}
			real = append(real, s)
		}
	}
	fmt.Printf("browsed: %d agents, %d server fetches, %d cache hits, %d real sessions\n",
		agents, fetched, cached, len(real))
	records := sink.Records()
	fmt.Printf("access log: %d records (first: %s)\n", len(records), records[0].CombinedString())

	// Every agent shares the loopback address, so users are keyed by
	// User-Agent.
	pipeline, err := core.NewPipeline(core.Config{
		Graph: g,
		Key:   func(r clf.Record) string { return r.UserAgent },
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	out, err := pipeline.ProcessRecords(records)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("pipeline:", out.Stats)
	fmt.Printf("accuracy vs live ground truth: matched %s, exists %s\n",
		eval.ScoreMatched(real, out.Sessions), eval.Score(real, out.Sessions))
	// Output:
	// site: webgraph.Graph{pages: 120, edges: 948, start pages: 10}
	// browsed: 50 agents, 844 server fetches, 394 cache hits, 437 real sessions
	// access log: 844 records (first: 127.0.0.1 - - [02/Jan/2006:00:02:00 +0000] "GET /p/58.html HTTP/1.1" 200 429 "-" "live-agent-000")
	// pipeline: records=844 malformed=0 filtered=0 unresolved=0 users=50 sessions=394
	// accuracy vs live ground truth: matched 297/437 (68.0%), exists 323/437 (73.9%)
}
