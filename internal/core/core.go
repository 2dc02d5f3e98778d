// Package core is the library's front door: the reactive web usage data
// processing pipeline the paper describes. It chains the substrates —
// Common Log Format parsing (internal/clf), data cleaning, user
// identification by IP, and session reconstruction (internal/heuristics,
// with Smart-SRA as the default) — in one sessionizer, the Tail:
//
//	g, _ := webgraph.Decode(topologyFile)
//	t, _ := core.NewTail(core.Config{Graph: g}, core.NoHorizon)
//	t.IngestFiles([]string{"access.log"}, clf.FilePos{}, nil, nil)
//	for _, s := range t.Flush() { ... }
//
// A Tail with a finite burst gap closes each user's burst as the log's clock
// passes it (sessionize -stream, serve); one built with NoHorizon closes
// nothing before the end of its input and reconstructs each user's whole
// history (sessionize, wumine). Either way a log is read one way — a decoder
// per gzip member ‖ clf's one parser goroutine ‖ the calling goroutine, which
// sessionizes and sinks. Nothing here sizes or selects that, nothing here
// takes a lock — a Tail has one owner goroutine — and nothing here starts a
// goroutine.
package core

import (
	"fmt"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/metrics"
	"smartsra/internal/webgraph"
)

// Process-wide throughput instrumentation, aggregated across all Tails
// (per-run numbers stay available via Stats).
var (
	metricTailRecords  = metrics.GetCounter("core.tail.records")
	metricTailSessions = metrics.GetCounter("core.tail.sessions")
	// metricTailBuffered tracks entries currently buffered in open bursts —
	// the streaming processor's memory exposure. metricTailMaxDepth is the
	// high watermark of any single user's burst depth, the signal that one
	// user (e.g. a merged proxy identity) is accumulating without closing.
	metricTailBuffered = metrics.GetGauge("core.tail.buffered.entries")
	metricTailMaxDepth = metrics.GetGauge("core.tail.buffered.maxdepth")
)

// Config assembles a Tail. Graph is required; everything else has
// production defaults.
type Config struct {
	// Graph is the site topology; required (the default heuristic and the
	// URI resolver both need it).
	Graph *webgraph.Graph
	// Heuristic reconstructs sessions; nil means Smart-SRA with the paper's
	// thresholds.
	Heuristic heuristics.Reconstructor
	// StreamChunkBytes is the streaming reader's chunk size, which is also
	// the granularity of ingestion's progress callbacks — and therefore of
	// checkpoints. <= 0 means the clf default (~1 MiB). It never changes the
	// output.
	StreamChunkBytes int
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

// stage runs the pure per-record stages that precede buffering — clean with
// clf.StandardCleaning, resolve the URI against Graph's labels, key the user
// by IP (§1: the only identity a common-format log has). The record travels
// by pointer: a clf.Record is 168 bytes, and the cleaning call, whose type
// takes it by value, is the only copy a line pays. During Tail ingestion it
// runs on clf's parser goroutine, beside the Tail's.
func (c *Config) stage(rec *clf.Record) pageView {
	if !clf.StandardCleaning()(*rec) {
		return pageView{res: stageFiltered}
	}
	page, ok := c.Graph.PageByURI(rec.URI)
	if !ok {
		return pageView{res: stageUnresolved}
	}
	return pageView{user: rec.Host, at: rec.Time, page: page}
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
	// Users is the number of users identified: on a NoHorizon Tail each
	// distinct user, otherwise each activity period (see Tail).
	Users int
	// Sessions is the number of reconstructed sessions.
	Sessions int
}

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf("records=%d malformed=%d filtered=%d unresolved=%d users=%d sessions=%d",
		s.Records, s.Malformed, s.Filtered, s.Unresolved, s.Users, s.Sessions)
}
