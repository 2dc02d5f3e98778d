package core

import (
	"io"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/plan"
	"smartsra/internal/session"
)

// WithPlan returns a copy of c with the execution knobs set from p. The
// plan never changes output — any {Workers, StreamDepth, StreamChunkBytes}
// is byte-identical to sequential — so applying one is purely a
// throughput/memory decision.
func (c Config) WithPlan(p plan.Plan) Config {
	c.Workers = p.Workers
	c.StreamDepth = p.StreamDepth
	c.StreamChunkBytes = p.ChunkBytes
	return c
}

// Sessionizer is the streaming-processor surface Tail and ShardedTail
// share: push records (or ingest a whole stream), drain finalized sessions,
// and snapshot/restore for crash recovery. It lets callers pick the
// processor an execution plan calls for without committing to a concrete
// type.
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

// NewSessionizer builds the streaming processor a plan calls for: a plain
// Tail when one shard suffices and nothing touches it concurrently, a
// lock-striped ShardedTail otherwise. concurrent forces the ShardedTail
// even single-sharded — Tail is not safe for concurrent use, and the
// single-shard ShardedTail costs only one uncontended lock per record (its
// hash is skipped). Output is byte-identical either way.
func NewSessionizer(cfg Config, rho time.Duration, shards int, concurrent bool) (Sessionizer, error) {
	if shards <= 1 && !concurrent {
		return NewTail(cfg, rho)
	}
	return NewShardedTail(cfg, rho, shards)
}
