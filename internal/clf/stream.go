package clf

import (
	"errors"
	"io"
	"testing"
	"time"
)

// StreamConfig tunes StreamChunked and StreamFilesChunked. Zero values mean:
// ~1 MiB chunks, start at the first byte of the first file, no tick.
type StreamConfig struct {
	// Workers is ignored: there is one parser goroutine and no pool. The
	// field stays because bench/layers.go:104 and :269 set it; ROADMAP item 3
	// (f) drops it with them.
	Workers int
	// ChunkBytes is the target chunk size; <= 0 means ~1 MiB.
	ChunkBytes int
	// Start is the resume position: files before Start.File are skipped and
	// Start.File begins at Start.Offset (a line boundary previously reported
	// through progress; decoded bytes for gzip members). A borrowed reader
	// has no position to seek to: StreamChunked ignores it.
	Start FilePos
	// NoMmap is ignored: every plain file is read, none is mapped. The field
	// stays because bench/layers.go:269 sets it; ROADMAP item 3 drops it
	// with Workers.
	NoMmap bool
	// Tick, when non-nil, is a second input of the emitting loop: each value
	// received runs OnTick on the goroutine that emits, between two chunks —
	// after one chunk's emitChunk and progress, before the next chunk's. The
	// parser, not the emitting goroutine, blocks in Read, so a tick fires on
	// an idle pipe too.
	Tick   <-chan time.Time
	OnTick func(time.Time)
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
func StreamChunked(r io.Reader, cfg StreamConfig, emitChunk func([]Record), progress func(FilePos) error) (malformed int, err error) {
	src := newReaderSource(r, 0) // no closers: r is borrowed
	open := func(int) (Source, error) { return src, nil }
	return streamSources(1, 0, open, cfg.withDefaults(), emitChunk, progress)
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
// newline separators (OpenLogInput's batch view). progress receives the
// line-aligned FilePos just past each chunk (decoded bytes within a gzip
// member); checkpointing consumers return an error from it to stop cleanly
// mid-set.
func StreamFilesChunked(paths []string, cfg StreamConfig, emitChunk func([]Record), progress func(FilePos) error) (malformed int, err error) {
	cfg = cfg.withDefaults()
	open := func(i int) (Source, error) {
		var off int64
		if i == cfg.Start.File {
			off = cfg.Start.Offset
		}
		return openSourceAt(paths[i], off, cfg.ChunkBytes)
	}
	return streamSources(len(paths), max(cfg.Start.File, 0), open, cfg, emitChunk, progress)
}

// parsedChunk is one chunk's parse result and where the chunk ended; bad
// includes the over-long lines skipped on the way there, and a message with
// err set is the last: how the stream ended, when not cleanly.
type parsedChunk struct {
	recs []Record
	bad  int
	pos  FilePos
	err  error
}

// retire ends the loan of a chunk's records — emitChunk has returned — and
// gives the slice back empty, to be refilled. In test binaries the records
// are first overwritten with sentinels, so a consumer that kept the slice
// fails its next comparison instead of racing with the parser.
func retire(recs []Record) []Record {
	if poisonLent {
		for i := range recs {
			recs[i] = Record{Host: "\x00lent", Status: -1}
		}
	}
	return recs[:0]
}

// poisonLent is true exactly in "go test" binaries (as core's, for sessions).
var poisonLent = testing.Testing()

// parser is the parse stage: one goroutine that owns the sources, the intern
// table and NextChunk → parseChunkIntern, beside the goroutine that emits.
// Each chunk is parsed — its bytes consumed — before the next NextChunk, into
// a ring of recycled record slices: a slice belongs to the parser while it is
// filled and to the emitting side from out until emitChunk has returned, then
// goes back on free.
type parser struct {
	ring[[]Record]
	out chan parsedChunk // parser → emitting side, in input order; closed at the end
	in  *internTable
}

// startParser starts parsing sources first..n-1 in turn. The goroutine closes
// every source it opened, whichever way it ends.
func startParser(n, first int, open func(int) (Source, error), chunkBytes int) *parser {
	// out is sized to the ring: a chunk never waits for a slot.
	p := &parser{ring: newRing[[]Record](), out: make(chan parsedChunk, ringDepth), in: newInternTable()}
	go func() {
		defer close(p.done)
		defer close(p.out)
		for i := first; i < n; i++ {
			src, err := open(i)
			if err == nil {
				err = p.drain(i, src, chunkBytes)
			}
			if err != nil {
				p.send(parsedChunk{err: err}) // after a stop nobody reads it
				return
			}
		}
	}()
	return p
}

var errStopped = errors.New("clf: stream stopped")

// drain parses src to its end and closes it.
func (p *parser) drain(i int, src Source, chunkBytes int) error {
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
		// Sized for a chunk of minimal lines: records are ~170 B, growing costs.
		recs, ok := p.take(func() []Record { return make([]Record, 0, chunkBytes/48+1) }, metricParseStall)
		if ok {
			if p.in.full() {
				p.in = newInternTable()
			}
			var bad int
			recs, bad = parseChunkIntern(data, recs, p.in)
			ok = p.send(parsedChunk{recs: recs, bad: skipped + bad, pos: FilePos{File: i, Offset: end}})
		}
		if !ok {
			src.Close()
			return errStopped
		}
	}
}

// send hands c to the emitting side; false once stopped.
func (p *parser) send(c parsedChunk) bool {
	select {
	case p.out <- c:
		return true
	case <-p.cancel:
		return false
	}
}

// streamSources runs the parse pipeline over n ordered sources, opened
// lazily by open, starting at index first, delivering each chunk's records
// as one slice: one parser goroutine reads and parses in input order and the
// calling goroutine emits behind it, running cfg.OnTick for each cfg.Tick in
// between. The parser has ended, its sources closed, on return.
func streamSources(n, first int, open func(int) (Source, error), cfg StreamConfig, emitChunk func([]Record), progress func(FilePos) error) (malformed int, err error) {
	records := 0
	defer func() {
		metricRecords.Add(int64(records))
		metricMalformed.Add(int64(malformed))
	}()
	p := startParser(n, first, open, cfg.ChunkBytes)
	defer p.stop() // every exit waits for the parser, which closes its source
	for {
		start := time.Now()
		var c parsedChunk
		var ok bool
		select {
		case c, ok = <-p.out:
			metricParseWait.Add(int64(time.Since(start)))
		case now := <-cfg.Tick:
			metricParseWait.Add(int64(time.Since(start)))
			cfg.OnTick(now)
			continue
		}
		if !ok || c.err != nil {
			return malformed, c.err
		}
		metricParseChunks.Inc()
		records += len(c.recs)
		malformed += c.bad
		if len(c.recs) > 0 {
			emitChunk(c.recs)
		}
		p.free <- retire(c.recs)
		if progress != nil {
			if perr := progress(c.pos); perr != nil {
				return malformed, perr
			}
		}
	}
}
