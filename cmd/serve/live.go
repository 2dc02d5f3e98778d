package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/metrics"
	"smartsra/internal/webgraph"
	"smartsra/internal/webserver"
)

var (
	// metricIngested counts the records the owner parsed from the live access
	// log; once it has caught up, serve.ingest.records == serve.requests.
	metricIngested = metrics.GetCounter("serve.ingest.records")
	// metricSessionsHeld counts the sessions the owner holds (stream.Held).
	metricSessionsHeld = metrics.GetGauge("serve.sessions.held")
	// sessionWriter is what session batches are written to: the session file
	// itself, or a test's fault injector in front of it.
	sessionWriter = func(f *os.File) io.Writer { return f }
)

// owner is the one goroutine that reads the access log (run), and the state
// only it touches once serving starts: its place in the log and the
// sessionizer behind it. Everything that happens to that state — a read
// tick, an expiry, a checkpoint, a rotation, shutdown — is a message its
// single select takes, and each starts by reading the log to its end
// (catchUp), so each happens at an exact record boundary with no lock to say
// so. It shares the access-log file and the server's log lock with the
// request path, and takes the lock only to rotate; a request never signals
// it.
type owner struct {
	s *server

	// stream is the streaming run over the access log, the one sessionize
	// runs over a finished log: the tail, the session file and the sessions
	// it refused, the cut journal, the checkpoint writer, and in stream.Pos
	// the line boundary the owner has read the log to. nil without
	// -sessions: only rotation is left to do. While it holds sessions each
	// message retries them first, and the owner reads no more log, expires
	// nothing and saves no checkpoint: the log is the backlog, and no later
	// session lands before a held one.
	stream *checkpoint.Run

	// log is the owner's own read descriptor on the access log, positioned
	// torn bytes past stream.Pos. buf[:torn] holds those bytes, which do not
	// yet end in a newline.
	log  *os.File
	buf  []byte
	torn int

	// The owner's inbox. run fills the tick channels from tickers and hup
	// from the signal; tests fire them by hand. A nil channel is a case that
	// never fires.
	now        func() time.Time
	readTick   <-chan time.Time
	expireTick <-chan time.Time
	ckptTick   <-chan time.Time
	hup        <-chan os.Signal
	quit, done chan struct{} // stop request; closed when run has returned
}

// logBlock is how much of the access log one read asks for.
const logBlock = 64 << 10

// readEvery is how often the owner reads the access log when no other message
// is due. A session gap is seconds at the least (the paper's ρ is minutes), so
// a line read this late changes no session; and a tick that does not follow
// the traffic costs no wake-up and no read(2) per request.
const readEvery = 100 * time.Millisecond

// newOwner opens everything the options name and brings the sessionizer up
// to date with it — checkpoint recovery — single-threaded,
// before anything is served.
func newOwner(opts options) (_ *owner, err error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	tf, err := os.Open(opts.topoPath)
	if err != nil {
		return nil, err
	}
	g, err := webgraph.Decode(bufio.NewReader(tf))
	tf.Close()
	if err != nil {
		return nil, err
	}

	s := &server{g: g, combined: opts.combined, logPath: opts.logPath}
	o := &owner{s: s, now: time.Now, quit: make(chan struct{}), done: make(chan struct{})}
	defer func() {
		if err != nil {
			o.close()
		}
	}()
	out := io.Writer(os.Stderr)
	var size int64 // where the owner starts reading the log without a checkpoint
	if opts.logPath != "" {
		if size, err = s.openLog(); err != nil {
			return nil, err
		}
		out = s.logFile
	}
	s.sink = webserver.NewWriterSink(newLogWriter(out, opts.combined))
	if opts.sessPath == "" {
		return o, nil
	}

	// The live tail has one owner — the owner goroutine — so it is a plain
	// Tail, with no lock.
	st, err := core.NewTail(core.Config{Graph: g}, opts.sessionGap)
	if err != nil {
		return nil, err
	}
	sessions, err := openSessions(opts.sessPath)
	if err != nil {
		return nil, err
	}
	o.stream = &checkpoint.Run{Tail: st, Out: sessions, Paths: []string{opts.logPath}, Notices: os.Stderr, Name: "serve"}
	if info, err := os.Stat(opts.sessPath + ".deadletter"); err == nil && info.Size() > 0 {
		fmt.Fprintf(os.Stderr, "serve: %s (%d bytes) is an older build's dead-letter journal; nothing reads it, and its sessions are in the access log\n",
			opts.sessPath+".deadletter", info.Size())
	}

	// Journal timed-expiry cuts beside the session file: the tail's input is
	// the log, so replaying the log with these cuts reproduces the live
	// emission byte for byte even with -expire-every on. Without a checkpoint
	// the tail starts fresh and old cut indices are meaningless, so truncate.
	// Freshly opened, the journal reads from its start; being O_APPEND, it is
	// written at its end wherever the reading stopped.
	mode := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if opts.ckptPath == "" {
		mode |= os.O_TRUNC
	}
	if o.stream.Journal, err = os.OpenFile(opts.sessPath+".cuts", mode, 0o644); err != nil {
		return nil, err
	}

	if opts.ckptPath != "" {
		o.stream.Ckpt = checkpoint.NewWriter(checkpoint.OS, opts.ckptPath, opts.ckptEvery)
		if err := o.recover(); err != nil {
			return nil, err
		}
		size = o.stream.Pos.Offset
	}
	return o, o.follow(size)
}

// follow opens the owner's read descriptor on the access log's current file
// at off, in place of the one it had.
func (o *owner) follow(off int64) error {
	f, err := os.Open(o.s.logPath)
	if err == nil {
		_, err = f.Seek(off, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return err
	}
	o.log.Close()
	o.log, o.torn = f, 0
	o.stream.Pos = clf.FilePos{Offset: off}
	return nil
}

// close releases the files newOwner (or a rotation since) opened.
func (o *owner) close() {
	o.s.logFile.Close()
	o.log.Close()
	if o.stream != nil {
		o.stream.Out.F.Close()
		o.stream.Journal.Close()
	}
}

// run is the owner goroutine: it takes one message at a time until a stop
// request, and answers that with the stop sequence.
func (o *owner) run() {
	defer close(o.done)
	for {
		select {
		case <-o.readTick:
			o.catchUp()
		case <-o.expireTick:
			o.expire()
		case <-o.ckptTick:
			if err := o.checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "serve: checkpoint:", err)
			}
		case <-o.hup:
			fmt.Println("caught SIGHUP, reopening log files")
			o.rotate()
		case <-o.quit:
			o.shutdown()
			return
		}
	}
}

// stop ends the owner goroutine through its stop sequence.
func (o *owner) stop() {
	close(o.quit)
	<-o.done
}

// catchUp writes the held sessions, if any, then reads the access log from
// where the owner stopped to the end of the file, logBlock bytes a read, and
// pushes every whole line through the sessionizer, until the session file
// refuses a write; it reports whether nothing is held. A torn last line — a
// write in progress, or one that failed halfway — stays in buf until its
// newline lands. Lines are parsed exactly as a replay of the log parses them,
// so the tail's input is the log's records, in the log's order.
//
// A read that does not fill the buffer has reached the end, so a catch-up
// with nothing new costs one read(2) — not ReadAt's two, a pread and its EOF
// probe (EXPERIMENTS.md, "The access log is the ingest queue"). Whatever is
// written after that read waits for the next message: at most readEvery.
func (o *owner) catchUp() bool {
	if n := o.stream.Held(); n > 0 {
		if !o.stream.Retry() {
			metricSessionWriteErrors.Inc()
			return false
		}
		fmt.Fprintf(os.Stderr, "serve: %d held sessions landed in %s; reading the log again\n", n, o.stream.Out.F.Name())
		metricSessionsHeld.Set(0)
	}
	for {
		if o.torn == len(o.buf) { // first read, or one line fills the buffer
			o.buf = append(o.buf, make([]byte, max(len(o.buf), logBlock))...)
		}
		n, err := o.log.Read(o.buf[o.torn:])
		full := o.torn+n == len(o.buf)
		data := o.buf[:o.torn+n]
		if whole := bytes.LastIndexByte(data, '\n') + 1; whole > 0 {
			metricIngested.Add(int64(o.stream.Push(data[:whole])))
			o.refused()
			data = data[whole:]
		}
		o.torn = copy(o.buf, data)
		if err != nil && err != io.EOF {
			fmt.Fprintln(os.Stderr, "serve: read access log:", err)
		}
		if !full || err != nil || o.stream.Held() > 0 {
			return o.stream.Held() == 0
		}
	}
}

// refused reports an outage as it starts, once the session file refused the
// batch of a step taken with nothing held: the failure is counted and told,
// the retries after it only counted.
func (o *owner) refused() {
	if n := o.stream.Held(); n > 0 {
		metricSessionWriteErrors.Inc()
		metricSessionsHeld.Set(int64(n))
		fmt.Fprintln(os.Stderr, "serve: session write:", o.stream.Err(), "(holding the sessions and reading no more of the log until the file takes them; retries are only counted, in serve.session_write_errors)")
	}
}

// expire finalizes quiet users so a user who leaves still gets their last
// session written, and journals the cut (checkpoint.Run.Expire). It needs no
// freeze: the owner is the only pusher, so the tail's record count after
// catching up is an exact record boundary.
func (o *owner) expire() {
	if !o.catchUp() {
		return
	}
	if err := o.stream.Expire(o.now()); err != nil {
		fmt.Fprintln(os.Stderr, "serve: cut journal:", err)
	}
	o.refused()
}

// checkpoint saves one at the log offset the owner has read to, without the
// log lock: handlers keep appending past it meanwhile, and a start from this
// checkpoint replays those lines from the log. With sessions held it saves
// nothing: the last checkpoint and the log are what a restart needs.
func (o *owner) checkpoint() error {
	if !o.catchUp() {
		return nil
	}
	if err := o.s.logFile.Sync(); err != nil {
		return err
	}
	return o.stream.Save()
}

// rotate reopens the access-log and session files in place (SIGHUP /
// logrotate). Under the log lock no request is mid-write: the owner reads the
// old log to its end, so the old log and the sessions emitted from it rotate
// as a pair, and then both sides switch to the new file. A fresh checkpoint
// follows at once because the old one's offsets refer to the rotated-away
// files. With sessions held the owner cannot read the old log to its end, so
// it reopens nothing and says so: nothing is lost, the handlers keep writing
// the old file, and the next SIGHUP after the sessions land rotates.
func (o *owner) rotate() {
	s := o.s
	s.logMu.Lock()
	if o.stream != nil && !o.catchUp() {
		s.logMu.Unlock()
		fmt.Fprintf(os.Stderr, "serve: SIGHUP with %d sessions held: nothing reopened; send it again once they land\n", o.stream.Held())
		return
	}
	if s.logFile != nil {
		old := s.logFile
		if size, err := s.openLog(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: reopen log:", err)
		} else {
			s.sink.Reset(newLogWriter(s.logFile, s.combined))
			old.Close()
			if o.stream != nil {
				if err := o.follow(size); err != nil {
					fmt.Fprintln(os.Stderr, "serve: follow reopened log:", err)
				}
			}
		}
	}
	if o.stream != nil {
		if out, err := openSessions(o.stream.Out.F.Name()); err != nil {
			fmt.Fprintln(os.Stderr, "serve: reopen sessions:", err)
		} else {
			o.stream.Out.F.Close()
			o.stream.Out = out
		}
	}
	s.logMu.Unlock()
	if o.stream != nil && o.stream.Ckpt != nil {
		if err := o.checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: checkpoint after rotate:", err)
		}
	}
}

// openSessions opens the session file at path at its end, written through
// sessionWriter.
func openSessions(path string) (*checkpoint.Sink, error) {
	out, err := checkpoint.OpenSink(path)
	if err == nil {
		out.W = sessionWriter(out.F)
	}
	return out, err
}

// openLog opens (or reopens) the access log for appending (and reading, for
// recovery's look at its last byte) and returns its size, where the owner
// starts reading it.
func (s *server) openLog() (int64, error) {
	f, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	s.logFile = f
	return info.Size(), nil
}

// shutdown is the stop sequence, the same for a signal and a listener error:
// read the log to its end, flush every open burst, and checkpoint the result.
// A line logged after that read (a handler past the HTTP shutdown deadline)
// is past the final checkpoint's offset, so the next start replays it. With
// sessions held at the end nothing is checkpointed: a restart from the last
// checkpoint replays them from the log.
func (o *owner) shutdown() {
	if o.stream == nil {
		return
	}
	landed := o.catchUp()
	err := o.stream.Finish()
	if landed {
		o.refused()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: stopping with %d sessions held: %s ends at its last complete batch; the access log has the rest\n",
			o.stream.Held(), o.stream.Out.F.Name())
		return
	}
	if o.stream.Ckpt != nil {
		if err := o.checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: final checkpoint:", err)
		}
	}
}

// recover brings the sessionizer up to the end of the access log before
// anything is served: the run resumes from the latest usable checkpoint —
// or, if there is none, from the start of the log — and replays the log to
// its end with the journaled cuts since, checkpointing as it goes, so a
// crash during a long recovery does not restart it from scratch. A start-up
// replay whose sessions the session file refuses stops and fails start-up
// (serve exits 1) rather than hold a whole replay's sessions in memory.
func (o *owner) recover() error {
	if err := o.s.repairLogTail(); err != nil {
		return err
	}
	if err := o.stream.Recover(); err != nil {
		return err
	}
	from := o.stream.Pos.Offset
	if err := o.stream.Ingest(nil); err != nil {
		return fmt.Errorf("replay %s: %w", o.s.logPath, err)
	}
	if err := o.stream.Save(); err != nil {
		fmt.Fprintln(os.Stderr, "serve: checkpoint:", err)
	}
	stats := o.stream.Tail.Stats()
	fmt.Printf("recovered from %s: replayed %d bytes of %s (records=%d malformed=%d sessions=%d)\n",
		o.stream.Ckpt.Path(), o.stream.Pos.Offset-from, o.s.logPath, stats.Records, stats.Malformed, stats.Sessions)
	return nil
}

// repairLogTail terminates a torn final line a crashed run may have left in
// the access log, so freshly served records do not concatenate onto it.
func (s *server) repairLogTail() error {
	info, err := s.logFile.Stat()
	if err != nil || info.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := s.logFile.ReadAt(last, info.Size()-1); err != nil {
		return err
	}
	if last[0] != '\n' {
		_, err = s.logFile.WriteString("\n")
	}
	return err
}
