package simulator

import (
	"math/rand"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/webgraph"
)

// Crawler traffic. Real access logs mix human navigation with search-engine
// bots, which fetch /robots.txt and then sweep the site breadth-first with
// tight timing and no session structure. Crawler records pollute analytics
// and must be removed by the data-cleaning phase; the common log format
// offers only the /robots.txt fetch as a signal, while the combined format
// exposes the bot user agent.
//
// Crawlers never affect ground-truth sessions or the simulator's Streams —
// they are log pollution by construction.

// CrawlerUserAgent is the user agent the synthetic bots send.
const CrawlerUserAgent = "sitecrawler/1.0 (+https://bots.example/info)"

// CrawlerRecords generates count bots' worth of access-log records over g,
// deterministically from seed. Each bot starts at a random start page's
// host-wide sweep: it fetches /robots.txt, then breadth-first visits every
// page reachable from the start set, one request every 1-3 seconds,
// beginning at start. Records are returned in time order per bot.
func CrawlerRecords(g *webgraph.Graph, count int, seed int64, start time.Time) []clf.Record {
	// One generator for the call, re-seeded per bot: the same draws as a
	// fresh rand.NewSource per bot (see source).
	return crawlerRecords(g, count, seed, start, rand.New(newSource(0)))
}

// crawlerRecords is CrawlerRecords on rng, which it re-seeds for every bot.
func crawlerRecords(g *webgraph.Graph, count int, seed int64, start time.Time, rng *rand.Rand) []clf.Record {
	if count <= 0 || g.NumPages() == 0 {
		return nil
	}
	var out []clf.Record
	for b := 0; b < count; b++ {
		rng.Seed(mixSeed(seed, int64(1_000_000+b)))
		ip := crawlerID(b)
		at := start.Add(time.Duration(rng.Int63n(int64(6 * time.Hour)))).Truncate(time.Second)
		emit := func(uri string, status int, referer string) {
			out = append(out, clf.Record{
				Host: ip, Ident: "-", AuthUser: "-", Time: at,
				Method: "GET", URI: uri, Protocol: "HTTP/1.1",
				Status: status, Bytes: 256 + int64(len(uri))*17,
				Referer: referer, UserAgent: CrawlerUserAgent,
			})
			at = at.Add(time.Duration(1+rng.Intn(3)) * time.Second)
		}
		emit("/robots.txt", 200, clf.NoField)
		// Breadth-first sweep from the start pages, deterministic order.
		seen := make(map[webgraph.PageID]bool)
		queue := append([]webgraph.PageID(nil), g.StartPages()...)
		for _, p := range queue {
			seen[p] = true
		}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			emit(g.Label(p), 200, clf.NoField)
			for _, v := range g.Succ(p) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return out
}

// crawlerID formats the synthetic IP of bot b (a distinct range from agents
// and proxies).
func crawlerID(b int) string {
	return "10.99." + itoa((b>>8)&255) + "." + itoa(b&255)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
