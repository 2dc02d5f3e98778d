// Package core is the library's front door: the reactive web usage data
// processing pipeline the paper describes. It chains the substrates —
// Common Log Format parsing (internal/clf), data cleaning, user
// identification (internal/prep), and session reconstruction
// (internal/heuristics, with Smart-SRA as the default) — behind one
// configuration and one call:
//
//	g, _ := webgraph.Decode(topologyFile)
//	p, _ := core.NewPipeline(core.Config{Graph: g})
//	result, _ := p.ProcessLog(logFile)
//	for _, s := range result.Sessions { ... }
//
// However a log gets here — ProcessLog, which collects it, or the streaming
// Tail.Ingest / IngestFiles, which do not — it is read one way: a decoder per
// gzip member ‖ clf's one parser goroutine ‖ the calling goroutine, which
// cleans, sessionizes and sinks, and expires between chunks when a tick says
// so. Nothing here sizes or selects that, nothing here takes a lock — a Tail
// has one owner goroutine — and nothing here starts a goroutine.
package core

import (
	"fmt"
	"io"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/metrics"
	"smartsra/internal/prep"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Process-wide throughput instrumentation, aggregated across all Pipelines
// and Tails (per-run numbers stay available via Stats). The counters are
// atomic, so concurrent Pipeline use keeps exact totals.
var (
	metricPipelineRecords  = metrics.GetCounter("core.pipeline.records")
	metricPipelineSessions = metrics.GetCounter("core.pipeline.sessions")
	metricTailRecords      = metrics.GetCounter("core.tail.records")
	metricTailSessions     = metrics.GetCounter("core.tail.sessions")
	// metricTailBuffered tracks entries currently buffered in open bursts —
	// the streaming processor's memory exposure. metricTailMaxDepth is the
	// high watermark of any single user's burst depth, the signal that one
	// user (e.g. a merged proxy identity) is accumulating without closing.
	metricTailBuffered = metrics.GetGauge("core.tail.buffered.entries")
	metricTailMaxDepth = metrics.GetGauge("core.tail.buffered.maxdepth")
)

// Config assembles a Pipeline. Graph is required; everything else has
// production defaults.
type Config struct {
	// Graph is the site topology; required (the default heuristic and the
	// URI resolver both need it).
	Graph *webgraph.Graph
	// Heuristic reconstructs sessions; nil means Smart-SRA with the paper's
	// thresholds.
	Heuristic heuristics.Reconstructor
	// Filter cleans records before user identification; nil means
	// clf.StandardCleaning(). Use clf.KeepAll to disable cleaning.
	//
	// Filter, Key and Resolver must be pure functions of their input: during
	// a Tail's Ingest* they run on clf's parser goroutine, beside the
	// goroutine that owns the Tail, a chunk or two ahead of it.
	Filter clf.Filter
	// Key identifies users; nil means prep.ByIP.
	Key prep.UserKey
	// Resolver maps URIs to pages; nil means resolving against Graph labels.
	Resolver prep.Resolver
	// StreamChunkBytes is the streaming reader's chunk size, which is also
	// the granularity of ingestion's progress callbacks — and therefore of
	// checkpoints. <= 0 means the clf default (~1 MiB). It never changes the
	// output.
	StreamChunkBytes int
	// ExpireTick, when non-nil, is a Tail ingestion's periodic expiry: each
	// value received runs Expire with it between two chunks, on the goroutine
	// that ingests (see Tail.Ingest). Typically a time.Ticker's C.
	ExpireTick <-chan time.Time
}

// stageResult is the verdict of the pre-buffer stages on one record.
type stageResult uint8

const (
	staged stageResult = iota
	stageFiltered
	stageUnresolved
)

// pageView is a record after the pure stages: who asked for which page
// when — all Phase 1 reads of a log line (§1: IP, time, URL) — or, in res,
// why the record goes no further. A filtered or unresolved record keeps its
// place as a pageView, so record counts and ExpiryCut boundaries see every
// record. It is what clf's parse ring carries during ingestion: 48 bytes
// where the record it came from is 168.
type pageView struct {
	user string
	at   time.Time
	page webgraph.PageID
	res  stageResult
}

// Lent is what clf overwrites a retired slice of page views with in test
// binaries (see clf.StreamStaged): a user no log names.
func (pageView) Lent() pageView { return pageView{user: "\x00lent"} }

// stage runs the pure per-record stages that precede buffering — clean,
// resolve, key. The record travels by pointer: a clf.Record is 168 bytes,
// and the Filter and Key calls, whose types take it by value, are the only
// copies a line pays. During Tail ingestion it runs on clf's parser
// goroutine, beside the Tail's.
func (c *Config) stage(rec *clf.Record) pageView {
	if c.Filter != nil && !c.Filter(*rec) {
		return pageView{res: stageFiltered}
	}
	page, ok := c.Resolver(rec.URI)
	if !ok {
		return pageView{res: stageUnresolved}
	}
	return pageView{user: c.Key(*rec), at: rec.Time, page: page}
}

// Pipeline is an immutable, reusable log-to-sessions processor. It is safe
// for concurrent use: every stage is a pure function of its input.
type Pipeline struct {
	cfg Config
}

// NewPipeline validates cfg and returns a Pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: Config.Graph is required")
	}
	if cfg.Heuristic == nil {
		cfg.Heuristic = heuristics.NewSmartSRA(cfg.Graph)
	}
	if cfg.Filter == nil {
		cfg.Filter = clf.StandardCleaning()
	}
	if cfg.Key == nil {
		cfg.Key = prep.ByIP
	}
	if cfg.Resolver == nil {
		cfg.Resolver = prep.GraphResolver(cfg.Graph)
	}
	return &Pipeline{cfg: cfg}, nil
}

// Result is the outcome of processing one log.
type Result struct {
	// Sessions are the reconstructed sessions across all users.
	Sessions []session.Session
	// Streams are the cleaned per-user request streams the heuristic saw.
	Streams []session.Stream
	// Stats describes what happened at each stage.
	Stats Stats
}

// Stats counts the pipeline stages' effects.
type Stats struct {
	// Records is the number of well-formed CLF records read.
	Records int
	// Malformed is the number of unparseable log lines skipped.
	Malformed int
	// Filtered is the number of records dropped by cleaning.
	Filtered int
	// Unresolved is the number of cleaned records whose URI matched no page.
	Unresolved int
	// Users is the number of distinct users identified.
	Users int
	// Sessions is the number of reconstructed sessions.
	Sessions int
}

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf("records=%d malformed=%d filtered=%d unresolved=%d users=%d sessions=%d",
		s.Records, s.Malformed, s.Filtered, s.Unresolved, s.Users, s.Sessions)
}

// ProcessLog runs the full pipeline on a CLF log: parse (skipping malformed
// lines), clean, identify users, order each user's requests, and reconstruct
// sessions. It fails only on read errors; data-quality issues are counted in
// Stats.
func (p *Pipeline) ProcessLog(r io.Reader) (*Result, error) {
	var records []clf.Record
	malformed, err := clf.StreamChunked(r, clf.StreamConfig{}, func(recs []clf.Record) {
		records = append(records, recs...) // recs is lent: copy out
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res, err := p.ProcessRecords(records)
	if err != nil {
		return nil, err
	}
	res.Stats.Malformed = malformed
	return res, nil
}

// ProcessRecords runs the pipeline on already-parsed records.
func (p *Pipeline) ProcessRecords(records []clf.Record) (*Result, error) {
	streams, pstats, err := prep.BuildStreams(records, p.cfg.Resolver, prep.Options{
		Filter: p.cfg.Filter,
		Key:    p.cfg.Key,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	sessions := heuristics.ReconstructAll(p.cfg.Heuristic, streams)
	metrics.GetHistogram(metrics.WithLabels(
		"core.pipeline.reconstruct.seconds", "heur", p.cfg.Heuristic.Name(),
	)).ObserveDuration(time.Since(start))
	metricPipelineRecords.Add(int64(pstats.Records))
	metricPipelineSessions.Add(int64(len(sessions)))
	return &Result{
		Sessions: sessions,
		Streams:  streams,
		Stats: Stats{
			Records:    pstats.Records,
			Filtered:   pstats.Filtered,
			Unresolved: pstats.Unresolved,
			Users:      pstats.Users,
			Sessions:   len(sessions),
		},
	}, nil
}

// Heuristic returns the reconstructor the pipeline uses.
func (p *Pipeline) Heuristic() heuristics.Reconstructor { return p.cfg.Heuristic }
