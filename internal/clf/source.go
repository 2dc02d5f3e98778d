package clf

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"smartsra/internal/metrics"
)

// Stage instrumentation: which side of the decoder/parser boundary, and of
// the parser/tail boundary, is the bottleneck on a given input. wait_ns is
// the consuming side blocked on the producing goroutine, stall_ns the
// producer blocked because its whole ring is still lent out.
var (
	metricDecodeChunks = metrics.GetCounter("clf.decode.chunks")
	metricDecodeWait   = metrics.GetCounter("clf.decode.wait_ns")
	metricDecodeStall  = metrics.GetCounter("clf.decode.stall_ns")
	metricParseChunks  = metrics.GetCounter("clf.parse.chunks")
	metricParseWait    = metrics.GetCounter("clf.parse.wait_ns")
	metricParseStall   = metrics.GetCounter("clf.parse.stall_ns")
)

// FilePos addresses a byte position within an ordered multi-file input set:
// File indexes the (lexically ordered) path list, Offset is the byte offset
// within that file — for gzip members it counts decoded bytes; a borrowed
// reader (StreamChunked) is file 0. Only positions on line boundaries are
// reported, so a resume from any reported FilePos replays exactly the records
// not yet emitted.
type FilePos struct {
	File   int
	Offset int64
}

// A Source produces line-aligned chunks of log bytes for the parse pipeline.
//
// NextChunk returns the next chunk of at least one complete line (the final
// chunk of a source may lack its trailing newline), the absolute byte offset
// within this source just past the consumed input (always a line boundary),
// and how many over-long lines (> 1 MiB) were skipped and dropped while
// producing it. A return with err != nil carries no data: io.EOF signals a
// clean end of input. The chunk is lent until the next NextChunk or Close:
// it aliases a read or ring buffer that is then refilled, so the caller
// consumes each chunk before asking for the next.
type Source interface {
	NextChunk(chunkBytes int) (chunk []byte, end int64, skipped int, err error)
	Close() error
}

// readerSource cuts an io.Reader into line-aligned chunks — every input is
// one: a plain file, a pipe, stdin, bytes in memory, a gzip member's decoded
// blocks. Over-long lines are skipped and counted (never buffered whole),
// matching the sequential lineScanner's policy.
type readerSource struct {
	r       io.Reader // read inline, on the caller's goroutine, when dec is nil
	dec     *decoder  // gzip: blocks arrive from the member's decode goroutine
	closers []io.Closer

	buf         []byte
	carry       []byte // unterminated tail of the previous block (own backing)
	joined      []byte // small carry-stitching buffer
	pendingData []byte // rest of the block after a stitched chunk
	pos         int64  // absolute offset of the first byte of carry
	skipping    bool   // inside an over-long line; carry is empty
	pending     int    // skipped lines not yet reported
	rerr        error  // sticky terminal result
}

func newReaderSource(r io.Reader, pos int64, closers ...io.Closer) *readerSource {
	return &readerSource{r: r, pos: pos, closers: closers}
}

func (s *readerSource) Close() error {
	if s.dec != nil {
		return s.dec.close()
	}
	err := closeAll(s.closers)
	s.closers = nil
	return err
}

// readBlock returns the next block of up to chunkBytes input bytes, valid
// until the following readBlock. A gzip member's decoder fills whole blocks
// on its own goroutine (io.ReadFull's error convention). A plain reader's
// block is what one Read returned: a file or an in-memory reader fills it,
// a pipe hands over what its writer has written so far — waiting for
// chunkBytes would hold a live producer's lines back until some 13,000 more
// had arrived.
func (s *readerSource) readBlock(chunkBytes int) ([]byte, error) {
	if s.dec != nil {
		return s.dec.next()
	}
	if len(s.buf) != chunkBytes {
		s.buf = make([]byte, chunkBytes)
	}
	for empty := 0; empty < maxConsecutiveEmptyReads; empty++ {
		if n, err := s.r.Read(s.buf); n > 0 || err != nil {
			return s.buf[:n], err
		}
	}
	return nil, io.ErrNoProgress
}

func (s *readerSource) NextChunk(chunkBytes int) ([]byte, int64, int, error) {
	if out := s.pendingData; len(out) > 0 {
		// The remainder of the last read block, delayed so the
		// carry-stitched front could ship first. Delivered before any error
		// report — pre-split it was part of the same returned chunk.
		s.pendingData = nil
		s.pos += int64(len(out))
		end, skipped := s.pos, s.pending
		s.pending = 0
		return out, end, skipped, nil
	}
	if chunkBytes <= 0 {
		chunkBytes = readChunkSize
	}
	for s.rerr == nil {
		b, rerr := s.readBlock(chunkBytes)
		out := s.consume(b)
		if rerr != nil {
			// Record the block's terminal condition; any chunk cut from the
			// block is still delivered first.
			s.stop(rerr)
		}
		if out != nil {
			end, skipped := s.pos, s.pending
			s.pending = 0
			return out, end, skipped, nil
		}
	}
	if s.rerr == io.EOF {
		// Flush the final unterminated line on clean EOF.
		if len(s.carry) > 0 {
			out := s.carry
			s.carry = nil
			s.pos += int64(len(out))
			end, skipped := s.pos, s.pending
			s.pending = 0
			return out, end, skipped, nil
		}
		if s.pending > 0 {
			// Over-long line(s) ran into EOF with no trailing data: report
			// the count on a data-free progress return before the EOF.
			end, skipped := s.pos, s.pending
			s.pending = 0
			return nil, end, skipped, nil
		}
		if s.dec != nil {
			// How a gzip member ended is part of reading it: a stream cut
			// short passes for a short final block above and only fails when
			// the decoder is closed. Report that here, as the read error it
			// is, not as a Close error.
			if err := s.dec.close(); err != nil {
				s.rerr = fmt.Errorf("clf: read: %w", err)
			}
		}
	}
	return nil, 0, 0, s.rerr
}

// consume folds one read block into the source state and returns at most one
// line-aligned chunk (nil when the block only extended the carry or skipped
// over-long bytes). s.pos advances over everything consumed: skipped lines
// and any returned chunk.
func (s *readerSource) consume(b []byte) []byte {
	if s.skipping {
		// Discard the tail of a line already counted as over-long.
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			s.pos += int64(len(b))
			return nil
		}
		s.pos += int64(i + 1)
		s.skipping = false
		b = b[i+1:]
	}
	if len(b) == 0 {
		return nil
	}
	nl := bytes.LastIndexByte(b, '\n')
	if nl >= 0 {
		if first := bytes.IndexByte(b, '\n'); len(s.carry)+first > maxLineBytes {
			// The chunk's first line spans the carry and is over-long: skip
			// just that line, keep the rest of the block.
			s.pos += int64(len(s.carry) + first + 1)
			s.carry = s.carry[:0]
			s.pending++
			b = b[first+1:]
			nl = bytes.LastIndexByte(b, '\n')
		}
	}
	if nl < 0 {
		if len(s.carry)+len(b) > maxLineBytes {
			// The line under construction can never fit; drop it and skip
			// forward to its newline.
			s.pos += int64(len(s.carry) + len(b))
			s.carry = s.carry[:0]
			s.skipping = true
			s.pending++
		} else {
			s.carry = append(s.carry, b...)
		}
		return nil
	}
	// Zero-copy delivery: the chunk aliases the block, which is not refilled
	// until the caller asks for the next chunk. A carried partial line is
	// stitched to the block's first line in the small joined buffer, and the
	// rest of the block is held back one call (pendingData) so both halves
	// ship without copying the block.
	var out []byte
	if len(s.carry) == 0 {
		out = b[:nl+1]
	} else {
		first := bytes.IndexByte(b, '\n') // exists: nl >= 0
		s.joined = append(append(s.joined[:0], s.carry...), b[:first+1]...)
		out = s.joined
		if first < nl {
			s.pendingData = b[first+1 : nl+1]
		}
	}
	s.carry = append(s.carry[:0], b[nl+1:]...)
	s.pos += int64(len(out))
	return out
}

// stop records the terminal condition of the underlying reader. A clean end
// (EOF, or the decoder's ErrUnexpectedEOF from a final short block) becomes
// io.EOF; real errors — a plain reader's own ErrUnexpectedEOF among them —
// drop the carried partial line, matching the previous producer.
func (s *readerSource) stop(rerr error) {
	if rerr == io.EOF || (s.dec != nil && rerr == io.ErrUnexpectedEOF) {
		s.rerr = io.EOF
		return
	}
	s.carry = nil
	s.pending = 0
	s.rerr = fmt.Errorf("clf: read: %w", rerr)
}

// ringDepth is how many buffers a producing goroutine — a gzip member's
// decoder, the parser — cycles through: one lent to the consuming side, one
// queued, one being filled.
const ringDepth = 3

// ring is the buffer side of a two-goroutine handoff: the producer takes a
// buffer, fills it and sends it on; the consumer puts it back on free when it
// is done with it. There are never more than ringDepth buffers, so free never
// blocks a put, and steady state allocates nothing however long the input.
type ring[T any] struct {
	free   chan T        // consumer → producer, buffers to refill
	cancel chan struct{} // closed by the consumer: stop producing
	done   chan struct{} // closed once the producing goroutine is gone
	once   sync.Once
	made   int // producer side: buffers allocated so far
}

func newRing[T any]() ring[T] {
	return ring[T]{free: make(chan T, ringDepth), cancel: make(chan struct{}), done: make(chan struct{})}
}

// take returns a buffer to fill: a recycled one, else one from alloc while
// the ring is short of its depth (a short input never pays for buffers it
// would not cycle through), else it waits, adding the wait to stall; false
// once stopped.
func (r *ring[T]) take(alloc func() T, stall *metrics.Counter) (buf T, ok bool) {
	select {
	case buf = <-r.free:
		return buf, true
	case <-r.cancel:
		return buf, false
	default:
	}
	if r.made < ringDepth {
		r.made++
		return alloc(), true
	}
	start := time.Now()
	select {
	case buf = <-r.free:
		stall.Add(int64(time.Since(start)))
		return buf, true
	case <-r.cancel:
		return buf, false
	}
}

// stop tells the producer to end and waits until its goroutine is gone.
func (r *ring[T]) stop() {
	r.once.Do(func() { close(r.cancel) })
	<-r.done
}

// decoder inflates one gzip member on its own goroutine, beside the parser.
// Decoded bytes cross over in blocks of chunkBytes read straight into a ring
// of recycled buffers: a buffer belongs to the decoder while it is filled, to
// the parse side from next until the following next (readerSource's chunks
// alias it), and then goes back to be refilled.
type decoder struct {
	ring[[]byte]
	blocks chan block // decoder → parse side, in stream order
	held   []byte     // parse side: buffer of the block it is reading

	closeErr error // closing the gzip reader and the file, read after done
}

// block is one io.ReadFull into a ring buffer: the bytes and the result.
type block struct {
	data []byte
	err  error
}

// startDecoder starts decoding r after discarding skip decoded bytes (the
// resume offset; a failure there arrives as the first block's error). The
// goroutine closes closers when it ends — at the stream's end, on a read
// error, or on close — and close reports their first error.
func startDecoder(r io.Reader, name string, skip int64, chunkBytes int, closers ...io.Closer) *decoder {
	if chunkBytes <= 0 {
		chunkBytes = readChunkSize
	}
	// blocks is sized to the ring like free: there are never more buffers
	// than slots, so neither side ever blocks on a send.
	d := &decoder{ring: newRing[[]byte](), blocks: make(chan block, ringDepth)}
	go func() {
		defer close(d.done)
		defer func() { d.closeErr = closeAll(closers) }()
		defer close(d.blocks)
		if skip > 0 {
			if _, err := io.CopyN(io.Discard, r, skip); err != nil {
				d.blocks <- block{err: fmt.Errorf("gzip %s: resume offset %d: %w", name, skip, err)}
				return
			}
		}
		for {
			buf, ok := d.take(func() []byte { return make([]byte, chunkBytes) }, metricDecodeStall)
			if !ok {
				return
			}
			n, err := io.ReadFull(r, buf)
			d.blocks <- block{buf[:n], err}
			if err != nil {
				return
			}
		}
	}()
	return d
}

// next hands the previous block's buffer back to the decoder and returns
// the next block, waiting for the decoder if it is behind.
func (d *decoder) next() ([]byte, error) {
	if d.held != nil {
		d.free <- d.held
		d.held = nil
	}
	start := time.Now()
	b, ok := <-d.blocks
	metricDecodeWait.Add(int64(time.Since(start)))
	if !ok {
		return nil, io.EOF // after the terminal block, or after close
	}
	metricDecodeChunks.Inc()
	d.held = b.data[:cap(b.data)]
	return b.data, b.err
}

// close stops the decoder, waits for its goroutine, and reports the error
// of closing the gzip reader (a truncated member surfaces here) and file.
func (d *decoder) close() error {
	d.stop()
	return d.closeErr
}

// gzipMagic is the two-byte header that selects the gzip source.
var gzipMagic = []byte{0x1f, 0x8b}

// sniffGzip reports whether the file starts with the gzip magic bytes,
// without moving the read position.
func sniffGzip(f *os.File) bool {
	var magic [2]byte
	n, _ := f.ReadAt(magic[:], 0)
	return n == 2 && bytes.Equal(magic[:], gzipMagic)
}

// openSourceAt opens path as a Source positioned at offset (decoded bytes
// for gzip members). A plain file is read where it stands, one Read into the
// source's buffer per block, so what stays resident is that buffer however
// large the file, and a file truncated under the reader ends at a short read.
// A gzip file decodes on a goroutine of its own that starts here, in blocks
// of chunkBytes, discarding to the resume offset first.
func openSourceAt(path string, offset int64, chunkBytes int) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if sniffGzip(f) {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("clf: gzip %s: %w", path, err)
		}
		dec := startDecoder(gz, path, offset, chunkBytes, gz, f)
		return &readerSource{pos: offset, dec: dec}, nil
	}
	if offset > 0 {
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
	}
	return newReaderSource(f, offset, f), nil
}
