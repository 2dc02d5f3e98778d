package core

import (
	"io"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// SessionSink consumes sessions as they finalize: during streaming ingestion
// and from Drain.
//
// Ownership: a batch is lent, valid until the sink returns. That covers the
// slice, every Session in it and every Session's Entries array — after the
// return the sessionizer reuses all three for the next batch. A sink that
// encodes or writes what it is given (session.WriteAll) needs nothing more;
// one that keeps sessions must Clone each of them before returning. The
// slice-returning calls (Push, PushBatch, Expire, Flush) are the opposite:
// what they return is the caller's to keep.
type SessionSink func([]session.Session)

// DiscardSessions is the sink for callers that only want the side effects
// (metrics, stats) of streaming ingestion.
func DiscardSessions([]session.Session) {}

// Ingest streams a CLF log into the Tail through the bounded-memory
// parallel parser: the input is parsed in line-aligned chunks on
// Config.Workers goroutines and delivered in input order through a channel
// of depth Config.StreamDepth straight into Push, so heap stays bounded by
// (workers + depth) chunks no matter how long the log is — nothing is
// materialized. sink receives sessions as records finalize them (nil means
// DiscardSessions); it runs on the calling goroutine. The Tail is NOT
// flushed: call Drain or Flush (or keep pushing) afterwards, matching
// live-tail use.
//
// The emitted sessions are byte-identical to pushing clf.ReadAll's records
// one by one, for any workers/depth — the golden-corpus and fuzz harnesses
// pin this.
func (t *Tail) Ingest(r io.Reader, sink SessionSink) (malformed int, err error) {
	return ingest(r, t.cfg, sink, t, nil)
}

// IngestOffsets is Ingest with replay-offset reporting for checkpointing
// callers: progress runs on the delivery goroutine after every line-aligned
// chunk, with the byte offset (relative to r's start) whose records — and
// the sessions they finalized — have been fully pushed and sunk. At that
// moment Snapshot() is exactly consistent with the offset, which is the
// invariant crash recovery needs.
func (t *Tail) IngestOffsets(r io.Reader, sink SessionSink, progress func(offset int64)) (malformed int, err error) {
	return ingest(r, t.cfg, sink, t, progress)
}

// IngestFiles streams an ordered multi-file log set — plain, gzip, or mixed,
// as log rotation produces — into the Tail through the zero-copy source
// layer: plain files are served as mmap windows (no line is copied between
// read and parse), gzip members decode on goroutines of their own, and the
// emitted sessions are byte-identical to ingesting the decompressed
// concatenation through Ingest. start resumes mid-set; progress (optional)
// receives the line-aligned clf.FilePos each chunk completes at, and may
// return a non-nil error to abort the stream — the checkpointing caller's
// clean-stop lever.
func (t *Tail) IngestFiles(paths []string, start clf.FilePos, sink SessionSink, progress func(clf.FilePos) error) (malformed int, err error) {
	return ingestFiles(paths, start, t.cfg, sink, t, progress)
}

// Ingest is Tail.Ingest on the sharded processor. Parsing fans out over
// Config.Workers; Push itself is invoked from the single delivery
// goroutine, so per-user arrival order — the determinism contract — is
// preserved while the parse stage runs at full parallelism. Concurrent
// Push/Expire from other goroutines remains safe during ingestion.
func (st *ShardedTail) Ingest(r io.Reader, sink SessionSink) (malformed int, err error) {
	return ingest(r, st.cfg, sink, st, nil)
}

// IngestOffsets is Tail.IngestOffsets on the sharded processor.
func (st *ShardedTail) IngestOffsets(r io.Reader, sink SessionSink, progress func(offset int64)) (malformed int, err error) {
	return ingest(r, st.cfg, sink, st, progress)
}

// IngestFiles is Tail.IngestFiles on the sharded processor.
func (st *ShardedTail) IngestFiles(paths []string, start clf.FilePos, sink SessionSink, progress func(clf.FilePos) error) (malformed int, err error) {
	return ingestFiles(paths, start, st.cfg, sink, st, progress)
}

// pusher is the slice of the Sessionizer surface ingestion needs:
// pushBatchTo pushes recs and lends the sessions they finalized to sink,
// building them in buf — the feeder's recycled buffer — and returning it for
// the next call.
type pusher interface {
	pushBatchTo(buf []session.Session, recs []clf.Record, sink SessionSink) []session.Session
}

// chunkFeeder builds the per-chunk delivery function ingestion hands to the
// clf chunk pipeline, honoring Config.BatchRecords: <= 0 hands the whole
// chunk to the sessionizer at once, n >= 1 slices it into sub-batches of at
// most n records (1 being the per-record delivery whose checkpoint
// consistency and sink latency interactive pipes want). Output is identical
// for every setting — a batched push is pinned byte-identical to a Push
// loop.
func chunkFeeder(cfg Config, p pusher, sink SessionSink) func([]clf.Record) {
	batch := cfg.BatchRecords
	// One session buffer for the whole ingestion: batches are lent to the
	// sink, so each reuses the previous one's storage and the steady state
	// allocates nothing per batch.
	var buf []session.Session
	return func(recs []clf.Record) {
		for len(recs) > 0 {
			n := len(recs)
			if batch >= 1 && n > batch {
				n = batch
			}
			buf = p.pushBatchTo(buf, recs[:n], sink)
			recs = recs[n:]
		}
	}
}

// ingest wires the clf chunked stream into a sessionizer.
func ingest(r io.Reader, cfg Config, sink SessionSink, p pusher, progress func(int64)) (int, error) {
	if sink == nil {
		sink = DiscardSessions
	}
	feed := chunkFeeder(cfg, p, sink)
	if cfg.BatchRecords == 1 {
		// Per-record delivery keeps the interactive-pipe scanner degrade
		// alive inside clf (workers == 1, no progress): records surface as
		// lines arrive instead of when a chunk fills.
		one := make([]clf.Record, 1)
		return clf.StreamParallelOffsetsChunked(r, cfg.effectiveWorkers(), cfg.effectiveStreamDepth(), cfg.StreamChunkBytes, func(rec clf.Record) {
			one[0] = rec
			feed(one)
		}, progress)
	}
	return clf.StreamChunked(r, cfg.effectiveWorkers(), cfg.effectiveStreamDepth(), cfg.StreamChunkBytes, feed, progress)
}

// ingestFiles wires the clf multi-file chunked stream into a sessionizer.
func ingestFiles(paths []string, start clf.FilePos, cfg Config, sink SessionSink, p pusher, progress func(clf.FilePos) error) (int, error) {
	if sink == nil {
		sink = DiscardSessions
	}
	return clf.StreamFilesChunked(paths, clf.StreamConfig{
		Workers:    cfg.effectiveWorkers(),
		Depth:      cfg.effectiveStreamDepth(),
		ChunkBytes: cfg.StreamChunkBytes,
		Start:      start,
	}, chunkFeeder(cfg, p, sink), progress)
}
