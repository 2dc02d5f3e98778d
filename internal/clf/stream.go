package clf

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// StreamConfig tunes the Stream* readers. Zero values mean:
// ~1 MiB chunks, start at the first byte of the first file.
type StreamConfig struct {
	// Workers is ignored: there is one parser goroutine and no pool. The
	// field stays because bench/layers.go:104 and :269 set it; ROADMAP item 2
	// drops it with them.
	Workers int
	// ChunkBytes is the target chunk size; <= 0 means ~1 MiB.
	ChunkBytes int
	// Start is the resume position: files before Start.File are skipped and
	// Start.File begins at Start.Offset (a line boundary previously reported
	// through progress; decoded bytes for gzip members). A borrowed reader
	// has no position to seek to: StreamChunked ignores it.
	Start FilePos
	// NoMmap is ignored: every plain file is read, none is mapped. The field
	// stays because bench/layers.go:269 sets it; ROADMAP item 2 drops it
	// with Workers.
	NoMmap bool
}

// withDefaults resolves the zero value the openers themselves read.
func (c StreamConfig) withDefaults() StreamConfig {
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = readChunkSize
	}
	return c
}

// StreamChunked streams the records of a reader the caller lends — a pipe,
// a socket, stdin, bytes in memory — in input order, and returns the
// malformed-line count. The input is cut into line-aligned chunks of at most
// about cfg.ChunkBytes, parsed through the byte-level fast path on one
// goroutine beside the calling one, and each chunk's records arrive as one
// slice, identical in sequence and malformed count to ReadAll's. Over-long
// lines (> 1 MiB) are skipped and counted as malformed; records parsed before
// a read error are emitted before the error returns.
//
// The slice is lent, valid only during the call: when emitChunk returns it
// goes back to the parser, which refills it while the next chunk is emitted
// (test binaries overwrite it first, see retire).
//
// A chunk is cut from what one Read returned, never waited for: a file or
// an in-memory reader fills it, a pipe delivers what its writer has written
// so far. Latency on a live pipe is therefore the writer's, and heap stays
// bounded by the read buffer and ringDepth record slices however long the
// input runs.
//
// After each chunk's records are emitted, progress (if non-nil) receives
// FilePos{0, offset}: the offset, relative to where r stood, just past the
// chunk. Every one is a line boundary, so a reader that seeks there and
// streams again sees exactly the records not yet emitted — what crash
// recovery replays depend on. A non-nil error from progress aborts the
// stream and is returned.
//
// It is kept out of line, as is StreamFilesChunked: inlined, it leaves its
// caller calling the generic StreamStaged, past which the compiler cannot
// see that emitChunk does not escape, and the caller's closure and what it
// captures move to the heap.
//
//go:noinline
func StreamChunked(r io.Reader, cfg StreamConfig, emitChunk func([]Record), progress func(FilePos) error) (malformed int, err error) {
	return StreamStaged(r, cfg, copyRecord, emitChunk, positions(progress))
}

// StreamStaged is StreamChunked handing on, in place of each record, what
// stage makes of it: stage runs on the parser goroutine, once per record in
// input order, so it must be safe to call beside the calling goroutine (a
// pure function of the record). Its *Record is the parser's scratch, valid
// only during the call. A consumer that needs three fields of a 168-byte
// Record pays for three in the ring. progress also receives the chunk's
// malformed-line count, so a consumer that checkpoints at a position can
// count the malformed lines before it.
func StreamStaged[T any](r io.Reader, cfg StreamConfig, stage func(*Record) T, emitChunk func([]T), progress func(pos FilePos, malformed int) error) (malformed int, err error) {
	src := newReaderSource(r, 0) // no closers: r is borrowed
	open := func(int) (Source, error) { return src, nil }
	return streamSources(1, 0, open, cfg.withDefaults().ChunkBytes, stage, emitChunk, progress)
}

// StreamFilesChunked is StreamChunked over an ordered multi-file log set —
// plain, gzip, or mixed, as a rotated retention window produces — from
// cfg.Start on. Each file is opened when the parser reaches it and read the
// way StreamChunked reads a reader — one Read per block into a recycled
// buffer the chunks alias, so a plain file costs that buffer however large it
// is — except that a gzip member is decoded on a goroutine of its own, so
// decompression overlaps parsing. A plain file truncated while it is read
// ends at the short read, as a clean end of that file.
//
// Files are independent record streams: a final line without a trailing
// newline still parses, exactly as if the files were concatenated with
// newline separators. progress receives the
// line-aligned FilePos just past each chunk (decoded bytes within a gzip
// member); checkpointing consumers return an error from it to stop cleanly
// mid-set.
//
//go:noinline
func StreamFilesChunked(paths []string, cfg StreamConfig, emitChunk func([]Record), progress func(FilePos) error) (malformed int, err error) {
	return StreamFilesStaged(paths, cfg, copyRecord, emitChunk, positions(progress))
}

// StreamFilesStaged is StreamFilesChunked handing on what stage makes of each
// record, and each chunk's malformed-line count to progress, as StreamStaged
// does.
func StreamFilesStaged[T any](paths []string, cfg StreamConfig, stage func(*Record) T, emitChunk func([]T), progress func(pos FilePos, malformed int) error) (malformed int, err error) {
	cfg = cfg.withDefaults()
	open := func(i int) (Source, error) {
		var off int64
		if i == cfg.Start.File {
			off = cfg.Start.Offset
		}
		return openSourceAt(paths[i], off, cfg.ChunkBytes)
	}
	return streamSources(len(paths), max(cfg.Start.File, 0), open, cfg.ChunkBytes, stage, emitChunk, progress)
}

// copyRecord is the stage of the Record streams: the record itself.
func copyRecord(rec *Record) Record { return *rec }

// positions is the Record streams' progress: the position alone.
func positions(progress func(FilePos) error) func(FilePos, int) error {
	if progress == nil {
		return nil
	}
	return func(pos FilePos, _ int) error { return progress(pos) }
}

// parsedChunk is one chunk's parse result and where the chunk ended; bad
// includes the over-long lines skipped on the way there, and a message with
// err set is the last: how the stream ended, when not cleanly.
type parsedChunk[T any] struct {
	recs []T
	bad  int
	pos  FilePos
	err  error
}

// retire ends the loan of a chunk's elements — emitChunk has returned — and
// gives the slice back empty, to be refilled. In test binaries the elements
// are first overwritten with a sentinel (poison), so a consumer that kept the
// slice fails its next comparison instead of racing with the parser.
func retire[T any](recs []T) []T {
	if poisonLent && len(recs) > 0 {
		poison(&recs[0])
		for i := 1; i < len(recs); i++ {
			recs[i] = recs[0]
		}
	}
	return recs[:0]
}

// poison overwrites *elem with what a retired element reads in test
// binaries: for a Record, host "\x00lent" and status -1; for an element type
// with a Lent method, what that returns; for any other, the zero value.
func poison[T any](elem *T) {
	switch p := any(elem).(type) {
	case *Record:
		*p = Record{Host: "\x00lent", Status: -1}
	case interface{ Lent() T }:
		*elem = p.Lent()
	default:
		var zero T
		*elem = zero
	}
}

// poisonLent is true exactly in "go test" binaries (as core's, for sessions).
var poisonLent = testing.Testing()

// parser is the parse stage: one goroutine that owns the sources, the intern
// table and NextChunk → parseChunkAs, beside the goroutine that emits.
// Each chunk is parsed — its bytes consumed — before the next NextChunk, into
// a ring of recycled slices of staged records: a slice belongs to the parser
// while it is filled and to the emitting side from out until emitChunk has
// returned, then goes back on free.
type parser[T any] struct {
	ring[[]T]
	out   chan parsedChunk[T] // parser → emitting side, in input order; closed at the end
	in    *internTable
	stage func(*Record) T
	// rec is the record each line is parsed into and stage reads. It is a
	// field, not a local, because its address goes to stage, an indirect
	// call: a local would escape, one heap Record per line.
	rec Record
}

// startParser starts parsing sources first..n-1 in turn. The goroutine closes
// every source it opened, whichever way it ends.
func startParser[T any](n, first int, open func(int) (Source, error), chunkBytes int, stage func(*Record) T) *parser[T] {
	// out is sized to the ring: a chunk never waits for a slot.
	p := &parser[T]{ring: newRing[[]T](), out: make(chan parsedChunk[T], ringDepth), in: newInternTable(), stage: stage}
	go func() {
		defer close(p.done)
		defer close(p.out)
		for i := first; i < n; i++ {
			src, err := open(i)
			if err == nil {
				err = p.drain(i, src, chunkBytes)
			}
			if err != nil {
				p.send(parsedChunk[T]{err: err}) // after a stop nobody reads it
				return
			}
		}
	}()
	return p
}

var errStopped = errors.New("clf: stream stopped")

// drain parses src to its end and closes it.
func (p *parser[T]) drain(i int, src Source, chunkBytes int) error {
	for {
		// Each chunk is parsed before the next is pulled: a reader-backed
		// source hands out its read or ring buffer itself and refills it here.
		data, end, skipped, err := src.NextChunk(chunkBytes)
		if err != nil {
			cerr := src.Close()
			if err == io.EOF {
				err = cerr
			}
			return err
		}
		// A slice holds at most one element per line of the chunk (the last
		// may have no newline), so it is made or regrown to that many before
		// the parse and never grows during it: the ring's slices follow the
		// log's line length, not the shortest line a chunk could hold.
		recs, ok := p.take(func() []T { return nil }, metricParseStall)
		if ok {
			if n := bytes.Count(data, []byte{'\n'}) + 1; cap(recs) < n {
				recs = make([]T, 0, n)
			}
			if p.in.full() {
				p.in = newInternTable()
			}
			var bad int
			recs, bad = parseChunkAs(data, recs, p.in, &p.rec, p.stage)
			metricMalformed.Add(int64(skipped)) // lines the source dropped before the parse
			ok = p.send(parsedChunk[T]{recs: recs, bad: skipped + bad, pos: FilePos{File: i, Offset: end}})
		}
		if !ok {
			src.Close()
			return errStopped
		}
	}
}

// send hands c to the emitting side; false once stopped.
func (p *parser[T]) send(c parsedChunk[T]) bool {
	select {
	case p.out <- c:
		return true
	case <-p.cancel:
		return false
	}
}

// streamSources runs the parse pipeline over n ordered sources, opened
// lazily by open, starting at index first, delivering each chunk's staged
// records as one slice: one parser goroutine reads, parses and stages in
// input order and the calling goroutine emits behind it. The parser has
// ended, its sources closed, on return.
func streamSources[T any](n, first int, open func(int) (Source, error), chunkBytes int, stage func(*Record) T, emitChunk func([]T), progress func(FilePos, int) error) (malformed int, err error) {
	p := startParser(n, first, open, chunkBytes, stage)
	defer p.stop() // every exit waits for the parser, which closes its source
	for {
		start := time.Now()
		c, ok := <-p.out
		metricParseWait.Add(int64(time.Since(start)))
		if !ok || c.err != nil {
			return malformed, c.err
		}
		metricParseChunks.Inc()
		malformed += c.bad
		if len(c.recs) > 0 {
			emitChunk(c.recs)
		}
		p.free <- retire(c.recs)
		if progress != nil {
			if perr := progress(c.pos, c.bad); perr != nil {
				return malformed, perr
			}
		}
	}
}
