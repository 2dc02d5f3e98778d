package core

import (
	"io"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// Sessionizer is the streaming-processor surface Tail and ShardedTail
// share: push records (or ingest a whole stream), drain finalized sessions,
// and snapshot/restore for crash recovery. It lets callers pick the
// processor by whether anything touches it concurrently, without committing
// to a concrete type.
type Sessionizer interface {
	Push(clf.Record) []session.Session
	PushBatch([]clf.Record) []session.Session
	Flush() []session.Session
	Drain(SessionSink)
	Expire(time.Time) []session.Session
	Ingest(io.Reader, SessionSink, func(clf.FilePos) error) (int, error)
	IngestFiles([]string, clf.FilePos, SessionSink, func(clf.FilePos) error) (int, error)
	IngestFilesCuts([]string, clf.FilePos, int64, []ExpiryCut, SessionSink, func(clf.FilePos) error) (int, error)
	Snapshot() TailSnapshot
	Restore(TailSnapshot) error
	Stats() Stats
	Buffered() int
}

var (
	_ Sessionizer = (*Tail)(nil)
	_ Sessionizer = (*ShardedTail)(nil)
)

// NewSessionizer builds the streaming processor for one feeding goroutine: a
// plain Tail when nothing else touches it, a one-shard ShardedTail when
// concurrent — Tail is not safe for concurrent use (a wall-clock Expire
// beside ingestion), and the single-shard ShardedTail costs only one
// uncontended lock per record (its hash is skipped). Output is byte-identical
// either way.
func NewSessionizer(cfg Config, rho time.Duration, concurrent bool) (Sessionizer, error) {
	if !concurrent {
		return NewTail(cfg, rho)
	}
	return NewShardedTail(cfg, rho, 1)
}
