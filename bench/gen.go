package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// The generator turns (seed, parameters) into log files and nothing else:
// the programs under test only ever see what it wrote. Every random draw
// comes from a generator seeded from genParams.Seed, and every pass that
// draws is sequential, so the same parameters give the same bytes.

// genParams is everything a corpus depends on.
type genParams struct {
	Seed   int64
	Agents int
	// Window spreads agent arrivals; zero means the simulator's 24 h.
	Window time.Duration
	// Noisy selects the hostile corpus: Combined Log Format, one embedded
	// resource per page view, non-2xx, crawler, unknown-URI and malformed
	// lines, rotated into noisyFiles gzip members.
	Noisy bool
}

// classCounts is what the generator knows it wrote, per class the pipeline
// reports: the tool's records/malformed/filtered/unresolved line must equal
// it exactly.
type classCounts struct {
	Lines      int `json:"lines"`
	Records    int `json:"records"`
	Malformed  int `json:"malformed"`
	Filtered   int `json:"filtered"`
	Unresolved int `json:"unresolved"`
}

// corpus is a generated input set on disk.
type corpus struct {
	Graph        *webgraph.Graph
	TopologyPath string
	// LogPaths are the files in replay order; LogArg is the -log value
	// that names them (a glob for the rotated set).
	LogPaths []string
	LogArg   string
	Counts   classCounts
	// Bytes is the decoded size of the log.
	Bytes int64
	Users int
	// Rho is the burst gap the log was (or is to be) sessionized with;
	// zero means the paper's 10 minutes.
	Rho time.Duration
}

const (
	noisyFiles = 4
	// Noise rates, as shares of simulated page views. Each view also gets
	// one embedded-resource line, so the shares of all lines are half these.
	rateNon2xx    = 0.04  // -> 2 % of lines
	rateUnknown   = 0.01  // -> 0.5 % of lines
	rateMalformed = 0.004 // -> 0.2 % of lines
	rateCrawler   = 0.01  // crawler lines as a share of all lines
	// crawlPages is how far each bot's sweep goes; see addCrawlers.
	crawlPages = 20
	// overlongLines lines longer than the scanner's 1 MiB cap are inserted
	// at fixed positions: they exercise skip-and-count, not throughput.
	overlongLines = 2
	overlongBytes = 1<<20 + 17
)

type eventKind uint8

const (
	kindView      eventKind = iota // simulated page view, status 200
	kindNon2xx                     // page view answered 304/403/404/500
	kindUnknown                    // 200 for a URI outside the topology
	kindResource                   // embedded .gif/.css/.js
	kindRobots                     // crawler's /robots.txt fetch
	kindCrawl                      // crawler page fetch
	kindMalformed                  // a line no CLF parser accepts
	kindOverlong                   // a line past the 1 MiB cap
)

// event is one log line before rendering, small enough that two million of
// them sort and partition cheaply.
type event struct {
	at   int64 // unix seconds
	seq  uint32
	host int32 // index into hosts
	page int32 // page id (kindUnknown: the missing page's number)
	ref  int32 // referring page or -1
	kind eventKind
	aux  uint8 // status / resource type / malformed template
}

var (
	non2xxStatus  = [...]int{304, 403, 404, 500}
	resourceKinds = [...]string{"img", "style", "app"}
	resourceExts  = [...]string{".gif", ".css", ".js"}
	browserAgents = [...]string{
		"Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.8) Gecko/20051111 Firefox/1.5",
		"Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1; SV1; .NET CLR 1.1.4322)",
		"Mozilla/5.0 (Macintosh; U; PPC Mac OS X; en) AppleWebKit/416.12 (KHTML, like Gecko) Safari/416.13",
		"Opera/8.51 (X11; Linux i686; U; en)",
	}
	// malformedLines fail every clf parser: no bracketed date, no quoted
	// request, a non-numeric status, and plain junk.
	malformedLines = [...]string{
		`10.9.9.9 - - 02/Jan/2006:00:00:00 +0000 "GET /p/1.html HTTP/1.1" 200 512`,
		`10.9.9.9 - - [02/Jan/2006:00:00:00 +0000] GET /p/1.html HTTP/1.1 200 512`,
		`10.9.9.9 - - [02/Jan/2006:00:00:00 +0000] "GET /p/1.html HTTP/1.1" OK 512`,
		`-- MARK -- syslogd restart`,
		"\x00\x01\x02 binary junk \xff\xfe",
	}
)

const refererPrefix = "http://site.example"

// generate simulates the traffic and writes the corpus under dir.
func generate(dir string, p genParams) (*corpus, error) {
	g, err := webgraph.GenerateTopology(webgraph.PaperTopology(), rand.New(rand.NewSource(p.Seed)))
	if err != nil {
		return nil, err
	}
	c := &corpus{Graph: g, TopologyPath: filepath.Join(dir, "topology.json")}
	if err := writeFile(c.TopologyPath, g.Encode); err != nil {
		return nil, err
	}
	res, err := simulate(g, p)
	if err != nil {
		return nil, err
	}
	c.Users = len(res.Streams)

	hosts := make([]string, 0, len(res.Streams))
	n := 0
	for _, st := range res.Streams {
		n += len(st.Entries)
	}
	events := make([]event, 0, n)
	for i, st := range res.Streams {
		hosts = append(hosts, st.User)
		for j, e := range st.Entries {
			events = append(events, event{
				at: e.Time.Unix(), seq: uint32(len(events)), host: int32(i),
				page: int32(e.Page), ref: int32(res.Referrers[i][j]), kind: kindView,
			})
		}
	}
	if p.Noisy {
		events, hosts = addCrawlers(events, hosts, g, p)
	}
	// Ties keep generation order (agent, then position) — the order
	// simulator.Result.Log uses, so the clean corpus is what simgen writes.
	slices.SortFunc(events, func(a, b event) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		return int(a.seq) - int(b.seq)
	})

	if !p.Noisy {
		c.Counts = classCounts{Lines: len(events), Records: len(events)}
		path := filepath.Join(dir, "access.log")
		c.LogPaths, c.LogArg = []string{path}, path
		c.Bytes, err = renderFile(path, false, g, hosts, events, false)
		return c, err
	}

	events, c.Counts = injectNoise(events, rand.New(rand.NewSource(p.Seed+3)))
	c.LogArg = filepath.Join(dir, "access.*.gz")
	sizes := make([]int64, noisyFiles)
	errs := make([]error, noisyFiles)
	var wg sync.WaitGroup
	for f := 0; f < noisyFiles; f++ {
		path := filepath.Join(dir, fmt.Sprintf("access.%d.gz", f))
		c.LogPaths = append(c.LogPaths, path)
		part := events[len(events)*f/noisyFiles : len(events)*(f+1)/noisyFiles]
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			sizes[f], errs[f] = renderFile(path, true, g, hosts, part, true)
		}(f)
	}
	wg.Wait()
	for f := range errs {
		if errs[f] != nil {
			return nil, errs[f]
		}
		c.Bytes += sizes[f]
	}
	return c, nil
}

// simulate runs the paper's agent model with the corpus' seed and size.
func simulate(g *webgraph.Graph, p genParams) (*simulator.Result, error) {
	sp := simulator.PaperParams()
	sp.Agents = p.Agents
	sp.Seed = p.Seed + 1
	sp.StartWindow = p.Window
	return simulator.Run(g, sp)
}

// addCrawlers appends enough bots that their lines are about rateCrawler of
// the finished log. Each bot fetches robots.txt and the first crawlPages
// pages of simulator.CrawlerRecords' breadth-first sweep. A full sweep is
// left out on purpose: 300 linked pages one to three seconds apart form one
// Phase 1 candidate, and Smart-SRA's Phase 2 on it takes a minute of CPU for
// 69 bots, which would turn a reader-and-filter workload into a Phase 2 one.
func addCrawlers(events []event, hosts []string, g *webgraph.Graph, p genParams) ([]event, []string) {
	bots := int(float64(2*len(events))*rateCrawler)/(crawlPages+1) + 1
	start := time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC) // the simulator's origin
	index := make(map[string]int32)
	kept := make([]int, 0, bots)
	for _, r := range simulator.CrawlerRecords(g, bots, p.Seed+2, start) {
		h, ok := index[r.Host]
		if !ok {
			h = int32(len(hosts))
			hosts = append(hosts, r.Host)
			index[r.Host] = h
			kept = append(kept, 0)
		}
		bot := int(h) - (len(hosts) - len(kept))
		if kept[bot] > crawlPages {
			continue
		}
		kept[bot]++
		ev := event{at: r.Time.Unix(), seq: uint32(len(events)), host: h, ref: -1, kind: kindRobots}
		if page, ok := g.PageByURI(r.URI); ok {
			ev.kind, ev.page = kindCrawl, int32(page)
		}
		events = append(events, ev)
	}
	return events, hosts
}

// injectNoise reclassifies page views and interleaves resource, malformed
// and over-long lines, counting each class as it goes.
func injectNoise(base []event, rng *rand.Rand) ([]event, classCounts) {
	var cc classCounts
	out := make([]event, 0, 2*len(base)+len(base)/64)
	long := make(map[int]bool, overlongLines)
	for i := 1; i <= overlongLines; i++ {
		long[len(base)*i/(overlongLines+1)] = true
	}
	for i, ev := range base {
		if long[i] {
			out = append(out, event{at: ev.at, kind: kindOverlong})
			cc.Malformed++
		}
		switch ev.kind {
		case kindRobots:
			cc.Filtered++
			out = append(out, ev)
			continue
		case kindCrawl:
			out = append(out, ev)
			continue
		}
		switch u := rng.Float64(); {
		case u < rateNon2xx:
			ev.kind, ev.aux = kindNon2xx, uint8(rng.Intn(len(non2xxStatus)))
			cc.Filtered++
		case u < rateNon2xx+rateUnknown:
			ev.kind, ev.page = kindUnknown, int32(rng.Intn(1000))
			cc.Unresolved++
		}
		out = append(out, ev)
		res := ev
		res.kind, res.ref, res.aux = kindResource, ev.page, uint8(rng.Intn(len(resourceKinds)))
		if ev.kind == kindUnknown {
			res.ref = -1
		}
		out = append(out, res)
		cc.Filtered++
		if rng.Float64() < rateMalformed {
			out = append(out, event{at: ev.at, kind: kindMalformed, aux: uint8(rng.Intn(len(malformedLines)))})
			cc.Malformed++
		}
	}
	cc.Lines = len(out)
	cc.Records = cc.Lines - cc.Malformed
	return out, cc
}

// renderFile writes events as log lines and returns the decoded byte count.
func renderFile(path string, combined bool, g *webgraph.Graph, hosts []string, events []event, gz bool) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	var w io.Writer = f
	var zw *gzip.Writer
	if gz {
		// BestSpeed: compression ratio is not what the workload measures,
		// and set-up time is.
		if zw, err = gzip.NewWriterLevel(f, gzip.BestSpeed); err != nil {
			f.Close()
			return 0, err
		}
		w = zw
	}
	n, err := render(w, combined, g, hosts, events)
	if err == nil && zw != nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// render formats events the way clf.Record.String / CombinedString do,
// without building Records: the timestamp is formatted once per distinct
// second and every field is appended into one reused buffer.
func render(w io.Writer, combined bool, g *webgraph.Graph, hosts []string, events []event) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var total int64
	var line []byte
	stampAt := int64(-1)
	var stamp []byte
	for _, ev := range events {
		line = line[:0]
		switch ev.kind {
		case kindMalformed:
			line = append(line, malformedLines[ev.aux]...)
		case kindOverlong:
			line = slices.Grow(line, overlongBytes)[:overlongBytes]
			for i := range line {
				line[i] = 'A'
			}
		default:
			if ev.at != stampAt {
				stampAt = ev.at
				stamp = time.Unix(ev.at, 0).UTC().AppendFormat(stamp[:0], "02/Jan/2006:15:04:05 -0700")
			}
			line = append(line, hosts[ev.host]...)
			line = append(line, " - - ["...)
			line = append(line, stamp...)
			line = append(line, `] "GET `...)
			status, size := 200, 1024+int64(ev.page)*37%4096
			switch ev.kind {
			case kindUnknown:
				line = append(line, "/missing/"...)
				line = strconv.AppendInt(line, int64(ev.page), 10)
				line = append(line, ".html"...)
			case kindResource:
				line = append(line, "/static/"...)
				line = append(line, resourceKinds[ev.aux]...)
				line = strconv.AppendInt(line, int64(ev.page%40), 10)
				line = append(line, resourceExts[ev.aux]...)
				size = 200 + int64(ev.page)*13%9000
			case kindRobots:
				line = append(line, "/robots.txt"...)
				size = 256 + int64(len("/robots.txt"))*17
			case kindNon2xx:
				line = append(line, g.Label(webgraph.PageID(ev.page))...)
				status, size = non2xxStatus[ev.aux], 0
			default:
				line = append(line, g.Label(webgraph.PageID(ev.page))...)
			}
			line = append(line, ` HTTP/1.1" `...)
			line = strconv.AppendInt(line, int64(status), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, size, 10)
			if combined {
				line = append(line, ` "`...)
				if ev.ref >= 0 {
					line = append(line, refererPrefix...)
					line = append(line, g.Label(webgraph.PageID(ev.ref))...)
				} else {
					line = append(line, '-')
				}
				line = append(line, `" "`...)
				if ev.kind == kindRobots || ev.kind == kindCrawl {
					line = append(line, simulator.CrawlerUserAgent...)
				} else {
					line = append(line, browserAgents[int(ev.host)%len(browserAgents)]...)
				}
				line = append(line, '"')
			}
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return total, err
		}
		total += int64(len(line))
	}
	return total, bw.Flush()
}

// writeFile creates path and fills it through a buffered writer.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
