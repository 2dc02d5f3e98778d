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

// Ingest streams a CLF log from a reader the caller lends — a pipe, stdin,
// bytes in memory — into the Tail through the bounded-memory chunk reader
// (clf.StreamStaged): the input is parsed in line-aligned chunks on one
// goroutine beside this one, which also cleans, resolves and keys each
// record (Config.stage), and each chunk's page views — user, time, page — are
// delivered in input order straight into the batched push, so heap stays
// bounded by a few chunks plus the users the log's clock leaves open, no
// matter how long the log is — nothing is materialized — and a chunk is what
// one Read returned,
// so a live pipe's records are pushed as its writer writes them. sink
// receives sessions as records finalize them (nil means DiscardSessions); it
// runs on the calling goroutine. The Tail is NOT flushed: call Drain or Flush
// (or keep pushing) afterwards, matching live-tail use.
//
// progress (optional) runs on the calling goroutine after every chunk with
// clf.FilePos{0, offset}: the byte offset, relative to where r stood, whose
// records — and the sessions they finalized — have been fully pushed and
// sunk. At that moment Snapshot() is exactly consistent with the offset,
// which is the invariant crash recovery needs; a non-nil error from it
// aborts the stream and is returned.
//
// The emitted sessions are byte-identical to pushing clf.ReadAll's records
// one by one, for any chunk size — the golden-corpus and fuzz harnesses pin
// this.
func (t *Tail) Ingest(r io.Reader, sink SessionSink, progress func(clf.FilePos) error) (malformed int, err error) {
	return t.ingest(logInput{r: r}, sink, progress)
}

// IngestFiles streams an ordered multi-file log set — plain, gzip, or mixed,
// as log rotation produces — into the Tail through the same chunk reader:
// a plain file costs one read buffer however large it is, gzip members
// decode on goroutines of their own, and the emitted sessions are
// byte-identical to ingesting the decompressed concatenation through Ingest.
// start resumes mid-set; progress is Ingest's, with the file's index in
// paths (and decoded bytes within a gzip member) — the checkpointing
// caller's clean-stop lever.
func (t *Tail) IngestFiles(paths []string, start clf.FilePos, sink SessionSink, progress func(clf.FilePos) error) (malformed int, err error) {
	return t.ingest(logInput{paths: paths, start: start}, sink, progress)
}

// logInput is what one ingestion reads — r, a borrowed reader, or when r is
// nil the files of paths from start on — and the journaled expiries to
// replay over it: cuts, counted from base records already in the
// sessionizer (see IngestFilesCuts).
type logInput struct {
	r     io.Reader
	paths []string
	start clf.FilePos
	base  int64
	cuts  []ExpiryCut
}

// ingest is the one ingestion engine: it wires the clf chunk reader for in
// through the feeder into the Tail.
func (t *Tail) ingest(in logInput, sink SessionSink, progress func(clf.FilePos) error) (malformed int, err error) {
	if sink == nil {
		sink = DiscardSessions
	}
	feed, flush := t.cutFeeder(sink, in.base, in.cuts)
	scfg := clf.StreamConfig{ChunkBytes: t.cfg.StreamChunkBytes, Start: in.start}
	// The pure stages run on the parser goroutine: the ring between it and
	// this one carries page views, not records. Each chunk's malformed lines
	// are counted before its progress, so a snapshot there carries them.
	stage := t.cfg.stage
	counted := func(pos clf.FilePos, bad int) error {
		t.stats.Malformed += bad
		if progress == nil {
			return nil
		}
		return progress(pos)
	}
	if in.r != nil {
		malformed, err = clf.StreamStaged(in.r, scfg, stage, feed, counted)
	} else {
		malformed, err = clf.StreamFilesStaged(in.paths, scfg, stage, feed, counted)
	}
	if err != nil {
		return malformed, err
	}
	flush()
	return malformed, nil
}
