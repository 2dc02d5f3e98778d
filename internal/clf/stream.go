package clf

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// DefaultStreamDepth is the default depth of the worker pool's in-order
// delivery channel: how many parsed chunks may be in flight between the
// reader and the consumer before the reader blocks. Together with the worker
// count it bounds the pipeline's heap: roughly
// (depth + workers) × chunk size of input bytes plus the records parsed from
// them, independent of how long the log is.
const DefaultStreamDepth = 8

// StreamConfig tunes StreamChunked and StreamFilesChunked. Zero values mean:
// GOMAXPROCS workers, DefaultStreamDepth, ~1 MiB chunks, start at the first
// byte of the first file, mmap allowed.
type StreamConfig struct {
	// Workers is the parse fan-out; <= 0 means GOMAXPROCS. Workers == 1 is
	// the sequential plan: no pool, one parser goroutine a chunk or two ahead
	// of the calling one, which emits — and one decoder per open gzip member.
	Workers int
	// Depth bounds in-flight parsed chunks; <= 0 means DefaultStreamDepth.
	Depth int
	// ChunkBytes is the target chunk size; <= 0 means ~1 MiB.
	ChunkBytes int
	// Start is the resume position: files before Start.File are skipped and
	// Start.File begins at Start.Offset (a line boundary previously reported
	// through progress; decoded bytes for gzip members). A borrowed reader
	// has no position to seek to: StreamChunked ignores it.
	Start FilePos
	// NoMmap forces the buffered reader for plain files (benchmarks and
	// equivalence tests; gzip always decodes through the buffered path).
	NoMmap bool
}

// withDefaults resolves the zero values the openers themselves read.
func (c StreamConfig) withDefaults() StreamConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = readChunkSize
	}
	return c
}

// StreamChunked streams the records of a reader the caller lends — a pipe,
// a socket, stdin, bytes in memory — in input order, and returns the
// malformed-line count. The input is cut into line-aligned chunks of at most
// about cfg.ChunkBytes, parsed through the byte-level fast path on
// cfg.Workers goroutines, and each chunk's records arrive as one slice,
// whatever the worker count identical in sequence and malformed count to
// ReadAll's. Over-long lines (> 1 MiB) are skipped and counted as malformed;
// records parsed before a read error are emitted before the error returns.
//
// The slice is lent, valid only during the call: when emitChunk returns it
// goes back to a parse goroutine, which refills it while the next chunk is
// emitted (test binaries overwrite it first, see retire).
//
// A chunk is cut from what one Read returned, never waited for: a file or
// an in-memory reader fills it, a pipe delivers what its writer has written
// so far. Latency on a live pipe is therefore the writer's, on every worker
// count, and heap stays bounded by (workers + depth) chunks however long the
// input runs.
//
// After each chunk's records are emitted, progress (if non-nil) receives
// FilePos{0, offset}: the offset, relative to where r stood, just past the
// chunk. Every one is a line boundary, so a reader that seeks there and
// streams again sees exactly the records not yet emitted — what crash
// recovery replays depend on. A non-nil error from progress aborts the
// stream and is returned.
func StreamChunked(r io.Reader, cfg StreamConfig, emitChunk func([]Record), progress func(FilePos) error) (malformed int, err error) {
	cfg = cfg.withDefaults()
	src := newReaderSource(r, SourceReader, 0) // no closers: r is borrowed
	open := func(int) (Source, error) { return src, nil }
	return streamSources(1, 0, open, cfg.Workers, cfg.Depth, cfg.ChunkBytes, emitChunk, progress)
}

// StreamFilesChunked is StreamChunked over an ordered multi-file log set —
// plain, gzip, or mixed, as a rotated retention window produces — from
// cfg.Start on. Each file is opened as the best Source for its content: mmap
// windows for plain files (chunks alias the mapping; no line is ever copied
// between read and parse), the buffered reader when mmap is unavailable or
// disabled, gzip decoding for compressed members — each on a goroutine of
// its own, so decompression overlaps parsing for any worker count; with
// workers > 1 upcoming members start decoding ahead as well.
//
// Files are independent record streams: a final line without a trailing
// newline still parses, exactly as if the files were concatenated with
// newline separators (OpenLogInput's batch view). progress receives the
// line-aligned FilePos just past each chunk (decoded bytes within a gzip
// member); checkpointing consumers return an error from it to stop cleanly
// mid-set.
func StreamFilesChunked(paths []string, cfg StreamConfig, emitChunk func([]Record), progress func(FilePos) error) (malformed int, err error) {
	cfg = cfg.withDefaults()
	first := max(cfg.Start.File, 0)
	if first >= len(paths) {
		return 0, nil
	}
	// Every gzip member decodes on its own goroutine from the moment it is
	// opened, so the pool opens ahead: while it parses file i, up to workers-1
	// (at most 4) of the next members are open too, their decoders running.
	o := &fileOpener{paths: paths, cfg: cfg, lookahead: min(cfg.Workers-1, 4), ahead: make(map[int]Source)}
	defer o.closeUnused()
	return streamSources(len(paths), first, o.open, cfg.Workers, cfg.Depth, cfg.ChunkBytes, emitChunk, progress)
}

// fileOpener opens the members of a file set for streamSources, lookahead of
// them early; ahead holds the ones opened and not yet asked for.
type fileOpener struct {
	paths     []string
	cfg       StreamConfig
	lookahead int
	ahead     map[int]Source
}

func (o *fileOpener) open(i int) (Source, error) {
	s, ok := o.ahead[i]
	if !ok {
		var off int64
		if i == o.cfg.Start.File {
			off = o.cfg.Start.Offset
		}
		var err error
		if s, err = openSourceAt(o.paths[i], off, o.cfg.NoMmap, o.cfg.ChunkBytes); err != nil {
			return nil, err
		}
	}
	delete(o.ahead, i)
	for k := i + 1; k <= i+o.lookahead && k < len(o.paths); k++ {
		if _, ok := o.ahead[k]; ok {
			continue
		}
		ns, err := openSourceAt(o.paths[k], 0, o.cfg.NoMmap, o.cfg.ChunkBytes)
		if err != nil {
			break // the open(k) that matters will report it
		}
		o.ahead[k] = ns
	}
	return s, nil
}

// closeUnused closes prefetched sources never consumed (early abort or error).
func (o *fileOpener) closeUnused() {
	for _, s := range o.ahead {
		s.Close()
	}
}

// parsedChunk is one chunk's parse result. From the sequential plan's parser
// it also says where the chunk ended, bad includes the over-long lines skipped
// on the way there, and a message with err set is the last: how the stream
// ended, when not cleanly.
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

// parser is the parse stage of the sequential plan: one goroutine that owns
// the sources, the intern table and NextChunk → parseChunkIntern, beside the
// goroutine that emits. Each chunk is parsed — its bytes consumed — before
// the next NextChunk, into a ring of recycled record slices: a slice belongs
// to the parser while it is filled and to the emitting side from out until
// emitChunk has returned, then goes back on free.
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
	if rs, ok := src.(interface{ markSerial() }); ok {
		// Every chunk is parsed before the next is pulled, so reader-backed
		// sources can hand out their read or ring buffer directly (zero-copy,
		// like the mmap windows).
		rs.markSerial()
	}
	for {
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

// sourceJob carries one line-aligned chunk through the pipeline. done is
// 1-buffered so a worker never blocks handing its result back. A job with
// closer set is a close sentinel: it follows every data job of its source
// through the FIFO order channel, so by the time the consumer reaches it all
// of that source's chunks have been fully parsed and the source — possibly
// an mmap whose windows those chunks aliased — is safe to close.
type sourceJob struct {
	data    []byte
	pos     FilePos
	skipped int
	done    chan parsedChunk
	closer  Source
}

// streamSources runs the parse pipeline over n ordered sources, opened
// lazily by open, starting at index first, delivering each chunk's records
// as one slice.
//
// Shape: one producer goroutine pulls line-aligned chunks from each source
// in turn and sends each job to both the workers (via work) and the consumer
// (via order, whose fixed buffer is the backpressure bound); the calling
// goroutine drains order in FIFO — input order — waiting on each job's own
// done channel, so delivery order never depends on worker scheduling.
// workers == 1 needs none of that: one parser goroutine reads and parses in
// input order and the calling goroutine emits behind it. Either way every
// goroutine started here has ended, its sources closed, on return.
func streamSources(n, first int, open func(int) (Source, error), workers, depth, chunkBytes int, emitChunk func([]Record), progress func(FilePos) error) (malformed int, err error) {
	records := 0
	defer func() {
		metricRecords.Add(int64(records))
		metricMalformed.Add(int64(malformed))
	}()

	if workers == 1 {
		// The sequential plan: parse over there, emit in order here.
		p := startParser(n, first, open, chunkBytes)
		defer p.stop() // every exit waits for the parser, which closes its source
		for {
			start := time.Now()
			c, ok := <-p.out
			metricParseWait.Add(int64(time.Since(start)))
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

	if depth <= 0 {
		depth = DefaultStreamDepth
	}
	work := make(chan *sourceJob)
	order := make(chan *sourceJob, depth)
	// Record slices go round as on the sequential plan, but a worker takes a
	// retired one or allocates, never waits: no deadlock against depth.
	free := make(chan []Record, depth+workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker persistent intern: strings repeat across this
			// worker's chunks, and the table is retired at maxInternEntries.
			in := newInternTable()
			for j := range work {
				if in.full() {
					in = newInternTable()
				}
				var recs []Record
				select {
				case recs = <-free:
				default:
					// Records are pointer-heavy (eight strings each), so an
					// append-grown slice pays repeated copy + write-barrier
					// bills; size it once from the shortest plausible line.
					recs = make([]Record, 0, len(j.data)/48+1)
				}
				recs, bad := parseChunkIntern(j.data, recs, in)
				j.done <- parsedChunk{recs: recs, bad: bad}
			}
		}()
	}

	// aborted is set by the consumer when progress rejects; the producer
	// stops cutting chunks, and the consumer keeps draining (without
	// emitting) so every in-flight job completes and every source closes.
	var aborted atomic.Bool
	var readErr error
	go func() {
		defer close(order)
		defer close(work)
		for i := first; i < n && !aborted.Load(); i++ {
			src, err := open(i)
			if err != nil {
				readErr = err
				return
			}
			for {
				data, end, skipped, nerr := src.NextChunk(chunkBytes)
				if nerr != nil {
					if nerr != io.EOF {
						readErr = nerr
					}
					break
				}
				j := &sourceJob{data: data, pos: FilePos{File: i, Offset: end}, skipped: skipped, done: make(chan parsedChunk, 1)}
				// Sending to order before work keeps the consumer's view
				// strictly FIFO and makes the order buffer the admission gate.
				order <- j
				if len(data) > 0 {
					work <- j
				} else {
					j.done <- parsedChunk{} // skip-count-only progress job
				}
				if aborted.Load() {
					break
				}
			}
			// The sentinel trails this source's jobs through the FIFO, so the
			// consumer closes it only after the workers are done with it.
			order <- &sourceJob{closer: src}
			if readErr != nil {
				return
			}
		}
	}()

	var progErr, closeErr error
	for j := range order {
		if j.closer != nil {
			if cerr := j.closer.Close(); cerr != nil && closeErr == nil {
				closeErr = cerr
			}
			continue
		}
		res := <-j.done
		if progErr != nil {
			continue // draining after abort
		}
		if len(res.recs) > 0 {
			emitChunk(res.recs)
		}
		records += len(res.recs)
		select {
		case free <- retire(res.recs):
		default:
		}
		malformed += res.bad + j.skipped
		if progress != nil {
			if perr := progress(j.pos); perr != nil {
				progErr = perr
				aborted.Store(true)
			}
		}
	}
	wg.Wait()
	// order is closed only after readErr is set, so this read is ordered.
	switch {
	case progErr != nil:
		return malformed, progErr
	case readErr != nil:
		return malformed, readErr
	case closeErr != nil:
		return malformed, closeErr
	}
	return malformed, nil
}
