package clf

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// DefaultStreamDepth is the default depth of StreamParallel's in-order
// delivery channel: how many parsed chunks may be in flight between the
// reader and the consumer before the reader blocks. Together with the worker
// count it bounds the pipeline's heap: roughly
// (depth + workers) × chunk size of input bytes plus the records parsed from
// them, independent of how long the log is.
const DefaultStreamDepth = 8

// Stream parses every record in r in input order, invoking emit for each,
// and returns the malformed-line count. It is ReadAll without the slice:
// memory is bounded by one line, so it suits logs that never end. Records
// parsed before a read error are emitted before the error returns.
func Stream(r io.Reader, emit func(Record)) (malformed int, err error) {
	sc := NewScanner(r)
	for sc.Scan() {
		emit(sc.Record())
	}
	malformed, _ = sc.Malformed()
	if err := sc.Err(); err != nil {
		return malformed, fmt.Errorf("clf: read: %w", err)
	}
	return malformed, nil
}

// StreamParallel is Stream with the parse stage fanned out over a bounded
// worker pool: the input is cut into line-aligned chunks of about 1 MiB,
// chunks are parsed concurrently through the byte-level fast path (with a
// per-chunk string-intern arena), and records are delivered to emit in input
// order through a fixed-depth channel. For any workers/depth the emitted
// sequence and malformed count are identical to Stream's (and ReadAll's).
//
// Unlike ReadAllParallel nothing is materialized: heap stays bounded by
// (depth + workers) chunks regardless of log length, which is what a
// reactive processor tailing an unbounded log needs. emit runs on the
// calling goroutine; workers <= 0 means GOMAXPROCS, workers == 1 degrades
// to the sequential Stream, depth <= 0 means DefaultStreamDepth.
func StreamParallel(r io.Reader, workers, depth int, emit func(Record)) (malformed int, err error) {
	return streamParallel(r, workers, depth, readChunkSize, emit, nil)
}

// StreamParallelOffsets is StreamParallel with replay-offset reporting for
// checkpointing consumers: after the last record of each line-aligned chunk
// has been emitted, progress is called (on the same goroutine as emit) with
// the byte offset just past that chunk, relative to the start of r. Every
// reported offset sits on a line boundary, so a reader that seeks there and
// resumes streaming sees exactly the records not yet emitted — the property
// crash recovery replays depend on. With a non-nil progress the chunked
// pipeline runs even for workers == 1 (the emitted sequence is identical;
// only offsets are added).
func StreamParallelOffsets(r io.Reader, workers, depth int, emit func(Record), progress func(offset int64)) (malformed int, err error) {
	return streamParallel(r, workers, depth, readChunkSize, emit, progress)
}

// StreamParallelOffsetsChunked is StreamParallelOffsets with an explicit
// chunk size. Progress boundaries fall at chunk ends, so callers tuning
// checkpoint granularity (or tests forcing many boundaries on small inputs)
// pick the chunk size; chunkBytes <= 0 means the default ~1 MiB.
func StreamParallelOffsetsChunked(r io.Reader, workers, depth, chunkBytes int, emit func(Record), progress func(offset int64)) (malformed int, err error) {
	if chunkBytes <= 0 {
		chunkBytes = readChunkSize
	}
	return streamParallel(r, workers, depth, chunkBytes, emit, progress)
}

// streamParallel adapts the single-reader entry points onto the source
// engine: the reader becomes one buffered Source and offsets lose their file
// index. The sequential degrade (workers == 1 without offsets) is kept so
// pipes retain per-line latency instead of waiting for a chunk to fill.
func streamParallel(r io.Reader, workers, depth, chunkSize int, emit func(Record), progress func(int64)) (malformed int, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The sequential degrade has no chunk boundaries to report, so offset
	// consumers stay on the chunked pipeline even at workers == 1.
	if workers == 1 && progress == nil {
		return Stream(r, emit)
	}
	return streamChunked(r, workers, depth, chunkSize, perRecord(emit), progress)
}

// StreamChunked is StreamParallelOffsetsChunked delivering each line-aligned
// chunk's records as one slice instead of one callback per record — the feed
// for batch consumers (core's PushBatch ingestion), which pay their
// per-delivery costs once per chunk. The slice is only valid during the
// call; emitChunk must not retain it: when it returns the slice goes back to
// a parse goroutine, which refills it while the next chunk is emitted (test
// binaries overwrite it first, see retire). Record order, malformed
// accounting, and progress boundaries are identical to the per-record entry
// points. Note the latency trade: unlike StreamParallel, workers == 1 does
// not degrade to the line-at-a-time scanner, so a pipe's records are
// delivered only when a chunk fills or the input ends — callers tailing an
// interactive pipe should use the per-record API (or batch == 1 at the core
// layer).
func StreamChunked(r io.Reader, workers, depth, chunkBytes int, emitChunk func([]Record), progress func(offset int64)) (malformed int, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if chunkBytes <= 0 {
		chunkBytes = readChunkSize
	}
	return streamChunked(r, workers, depth, chunkBytes, emitChunk, progress)
}

// streamChunked wires a single borrowed reader into the source engine.
func streamChunked(r io.Reader, workers, depth, chunkSize int, emitChunk func([]Record), progress func(int64)) (malformed int, err error) {
	var fileProgress func(FilePos) error
	if progress != nil {
		fileProgress = func(pos FilePos) error {
			progress(pos.Offset)
			return nil
		}
	}
	src := newReaderSource(r, SourceReader, 0) // no closers: r is borrowed
	open := func(int) (Source, error) { return src, nil }
	return streamSources(1, 0, open, workers, depth, chunkSize, emitChunk, fileProgress)
}

// perRecord adapts a per-record callback onto the chunk-delivery engine.
func perRecord(emit func(Record)) func([]Record) {
	return func(recs []Record) {
		for i := range recs {
			emit(recs[i])
		}
	}
}

// StreamConfig tunes StreamFiles. Zero values mean: GOMAXPROCS workers,
// DefaultStreamDepth, ~1 MiB chunks, start at the first byte of the first
// file, mmap allowed.
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
	// through progress; decoded bytes for gzip members).
	Start FilePos
	// NoMmap forces the buffered reader for plain files (benchmarks and
	// equivalence tests; gzip always decodes through the buffered path).
	NoMmap bool
}

// StreamFiles streams the records of an ordered multi-file log set — plain,
// gzip, or mixed, as a rotated retention window produces — in input order
// through the same bounded pipeline as StreamParallel. Each file is opened
// as the best Source for its content: mmap windows for plain files (chunks
// alias the mapping; no line is ever copied between read and parse), the
// buffered reader for pipes or when mmap is unavailable, gzip decoding for
// compressed members — each on a goroutine of its own, so decompression
// overlaps parsing for any worker count; with workers > 1 upcoming members
// start decoding ahead as well.
//
// Files are independent record streams: a final line without a trailing
// newline still parses, exactly as if the files were concatenated with
// newline separators (OpenLogInput's batch view). After each chunk's records
// are emitted, progress (if non-nil) receives the line-aligned FilePos just
// past the chunk; a non-nil error from progress aborts the stream and is
// returned, which checkpointing consumers use to stop cleanly mid-set.
// Over-long lines (> 1 MiB) are skipped and counted as malformed.
func StreamFiles(paths []string, cfg StreamConfig, emit func(Record), progress func(FilePos) error) (malformed int, err error) {
	return StreamFilesChunked(paths, cfg, perRecord(emit), progress)
}

// StreamFilesChunked is StreamFiles with chunk-batch delivery: each
// line-aligned chunk's records arrive as one slice, valid only during the
// call (see StreamChunked for the contract and the pipe-latency trade).
func StreamFilesChunked(paths []string, cfg StreamConfig, emitChunk func([]Record), progress func(FilePos) error) (malformed int, err error) {
	first := cfg.Start.File
	if first < 0 {
		first = 0
	}
	if first >= len(paths) {
		return 0, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunkBytes := cfg.ChunkBytes
	if chunkBytes <= 0 {
		chunkBytes = readChunkSize
	}

	// Every gzip member decodes on its own goroutine from the moment it is
	// opened. Open-ahead: when the pool is parsing file i, up to lookahead of
	// the next members are opened too, so their decoders run concurrently.
	lookahead := 0
	if workers > 1 {
		lookahead = workers - 1
		if lookahead > 4 {
			lookahead = 4
		}
	}
	ahead := make(map[int]Source)
	defer func() {
		// Close prefetched sources never consumed (early abort or error).
		for _, s := range ahead {
			s.Close()
		}
	}()
	open := func(i int) (Source, error) {
		s, ok := ahead[i]
		if !ok {
			var off int64
			if i == cfg.Start.File {
				off = cfg.Start.Offset
			}
			var err error
			if s, err = openSourceAt(paths[i], off, cfg.NoMmap, chunkBytes); err != nil {
				return nil, err
			}
		}
		delete(ahead, i)
		for k := i + 1; k <= i+lookahead && k < len(paths); k++ {
			if _, ok := ahead[k]; ok {
				continue
			}
			ns, err := openSourceAt(paths[k], 0, cfg.NoMmap, chunkBytes)
			if err != nil {
				break // the open(k) that matters will report it
			}
			ahead[k] = ns
		}
		return s, nil
	}
	return streamSources(len(paths), first, open, workers, cfg.Depth, chunkBytes, emitChunk, progress)
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
// as one slice (per-record callers wrap with perRecord).
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
