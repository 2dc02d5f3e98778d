package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/metrics"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
	"smartsra/internal/webserver"
)

var (
	// metricIngested counts the records the owner parsed from the live access
	// log; once it has caught up, serve.ingest.records == serve.requests.
	metricIngested = metrics.GetCounter("serve.ingest.records")
	// metricSessionsHeld counts the sessions the owner holds (owner.held).
	metricSessionsHeld = metrics.GetGauge("serve.sessions.held")
	// errHeld ends a start-up replay with held sessions: it cannot hold them all.
	errHeld = errors.New("sessions wait on a failing session file")
	// sessionWriter is what session batches are written to: the session file
	// itself, or a test's fault injector in front of it.
	sessionWriter = func(f *os.File) io.Writer { return f }
)

// owner is the one goroutine that reads the access log (run), and the state
// only it touches once serving starts: its place in the log, the tail, the
// session file and the sessions it refused, the cut journal and its
// numbering, the checkpoint writer. Everything that happens to that state —
// the log grew, an expiry, a checkpoint, a rotation, shutdown — is a message
// its single select takes, and each starts by reading the log to its end
// (catchUp), so each happens at an exact record boundary with no lock to say
// so. The one thing it shares with the request path is the server's log
// lock, which it takes to rotate.
type owner struct {
	s *server

	tee *sessionTee // nil without -sessions: only rotation is left to do
	// cutsFile journals timed-expiry cuts (<sessions>.cuts) so an offline
	// replay can reproduce periodic Expire emission exactly. cutSeq is the
	// last journaled (or restored) cut's sequence number.
	cutsFile *os.File
	cutSeq   int64
	ckpt     *checkpoint.Writer // nil without -checkpoint

	// log is the owner's own read descriptor on the access log, positioned
	// at off+torn. off is where the owner's next line starts: every line
	// before it is in the tail. buf[:torn] holds the bytes read past off that
	// do not yet end in a newline.
	log   *os.File
	off   int64
	buf   []byte
	torn  int
	batch []clf.Record      // recycled parse of one read
	out   []session.Session // recycled session output of one push

	// held is what the session file refused, cloned (batches are lent). While
	// it is not empty each message retries it first, and the owner reads no
	// more log, expires nothing and saves no checkpoint: the log is the
	// backlog, and no later session lands before a held one.
	held []session.Session

	// The owner's inbox beside the wake channel. run fills the tick channels
	// from tickers and hup from the signal; tests fire them by hand. A nil
	// channel is a case that never fires.
	now        func() time.Time
	expireTick <-chan time.Time
	ckptTick   <-chan time.Time
	hup        <-chan os.Signal
	quit, done chan struct{} // stop request; closed when run has returned
}

// logBlock is how much of the access log one read asks for.
const logBlock = 64 << 10

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
	if opts.logPath != "" {
		if o.off, err = s.openLog(); err != nil {
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
	if o.tee, err = newSessionTee(st, opts.sessPath); err != nil {
		return nil, err
	}
	if info, err := os.Stat(opts.sessPath + ".deadletter"); err == nil && info.Size() > 0 {
		fmt.Fprintf(os.Stderr, "serve: %s (%d bytes) is an older build's dead-letter journal; nothing reads it, and its sessions are in the access log\n",
			opts.sessPath+".deadletter", info.Size())
	}
	s.wake = make(chan struct{}, 1)

	// Journal timed-expiry cuts beside the session file: the tail's input is
	// the log, so replaying the log with these cuts reproduces the live
	// emission byte for byte even with -expire-every on. Without a checkpoint
	// the tail starts fresh and old cut indices are meaningless, so truncate.
	mode := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if opts.ckptPath == "" {
		mode |= os.O_TRUNC
	}
	if o.cutsFile, err = os.OpenFile(opts.sessPath+".cuts", mode, 0o644); err != nil {
		return nil, err
	}

	if opts.ckptPath != "" {
		o.ckpt = checkpoint.NewWriter(checkpoint.OS, opts.ckptPath, opts.ckptEvery)
		if err := o.recoverFromCheckpoint(); err != nil {
			return nil, err
		}
	}
	return o, o.follow(o.off)
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
	o.log, o.off, o.torn = f, off, 0
	return nil
}

// close releases the files newOwner (or a rotation since) opened.
func (o *owner) close() {
	o.s.logFile.Close()
	o.log.Close()
	o.cutsFile.Close()
	if o.tee != nil {
		o.tee.f.Close()
	}
}

// run is the owner goroutine: it takes one message at a time until a stop
// request, and answers that with the stop sequence.
func (o *owner) run() {
	defer close(o.done)
	for {
		select {
		case <-o.s.wake:
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
// A read that does not fill the buffer has reached the end, so a wake costs
// one read(2) — not ReadAt's two, a pread and its EOF probe: under load each
// costs several times its price in a loop (EXPERIMENTS.md, "The access log
// is the ingest queue"). Whatever is written after that read comes with a
// wake of its own.
func (o *owner) catchUp() bool {
	if len(o.held) > 0 {
		if o.tee.writeBatch(o.held) != nil {
			return false
		}
		fmt.Fprintf(os.Stderr, "serve: %d held sessions landed in %s; reading the log again\n", len(o.held), o.tee.f.Name())
		o.held = nil
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
			o.batch, _ = clf.ParseChunk(data[:whole], o.batch[:0])
			metricIngested.Add(int64(len(o.batch)))
			o.push(o.batch)
			o.off += int64(whole)
			data = data[whole:]
		}
		o.torn = copy(o.buf, data)
		if err != nil && err != io.EOF {
			fmt.Fprintln(os.Stderr, "serve: read access log:", err)
		}
		if !full || err != nil || len(o.held) > 0 {
			return len(o.held) == 0
		}
	}
}

// push feeds a batch built on o.batch to the tail, writes whatever sessions
// it finalized, and takes the batch back for reuse.
func (o *owner) push(batch []clf.Record) {
	o.out = o.tee.st.PushBatchInto(o.out[:0], batch)
	o.emit(o.out)
	// Records hold field strings; clear them so the recycled backing array
	// does not pin request data.
	clear(batch)
	o.batch = batch[:0]
}

// emit is the owner's session sink: it writes a batch to the session file,
// or holds a copy of it if the write fails or sessions are held already. The
// first failure of an outage is reported; the retries are only counted.
func (o *owner) emit(batch []session.Session) {
	if len(batch) == 0 {
		return
	}
	if len(o.held) == 0 {
		err := o.tee.writeBatch(batch)
		if err == nil {
			return
		}
		fmt.Fprintln(os.Stderr, "serve: session write:", err, "(holding the sessions and reading no more of the log until the file takes them; retries are only counted, in serve.session_write_errors)")
	}
	for _, s := range batch {
		o.held = append(o.held, s.Clone())
	}
	metricSessionsHeld.Set(int64(len(o.held)))
}

// expire finalizes quiet users so a user who leaves still gets their last
// session written. It needs no freeze: the owner is the only pusher, so the
// tail's record count after catching up is an exact record boundary. That
// boundary is what makes timed expiry replayable: a sweep that emitted
// sessions is journaled as (seq, tail record count, cutoff), and an offline
// replay applying Expire(cutoff) after exactly that many records reproduces
// the live emission byte for byte. Sweeps that emit nothing are not
// journaled — an empty Expire changes no output-relevant state.
func (o *owner) expire() {
	if !o.catchUp() {
		return
	}
	now := o.now()
	out := o.tee.st.Expire(now)
	if len(out) == 0 {
		return
	}
	o.emit(out)
	o.cutSeq++
	cut := core.ExpiryCut{Seq: o.cutSeq, Records: int64(o.tee.st.Stats().Records), At: now}
	if err := core.AppendCut(o.cutsFile, cut); err != nil {
		fmt.Fprintln(os.Stderr, "serve: cut journal:", err)
	}
}

// checkpoint saves one at the log offset the owner has read to, without the
// log lock: handlers keep appending past off meanwhile, and a start from this
// checkpoint replays those lines from the log. With sessions held it saves
// nothing: the last checkpoint and the log are what a restart needs.
func (o *owner) checkpoint() error {
	if !o.catchUp() {
		return nil
	}
	if err := o.s.logFile.Sync(); err != nil {
		return err
	}
	// The snapshot's CutSeq refers into the journal; make sure the journal
	// is at least as durable as the checkpoint that cites it.
	if err := o.cutsFile.Sync(); err != nil {
		return err
	}
	// Its SinkOffset says the session file is on disk that far.
	if err := o.tee.f.Sync(); err != nil {
		return fmt.Errorf("session file sync: %w", err)
	}
	return o.ckpt.Save(o.buildCheckpoint(o.off))
}

// buildCheckpoint assembles a checkpoint at the given access-log offset. The
// caller is the owner (or single-threaded recovery), so nothing is pushed
// meanwhile: the session-file sync before it, the offset, and the snapshot
// are one consistent cut.
func (o *owner) buildCheckpoint(logOff int64) *checkpoint.Checkpoint {
	return &checkpoint.Checkpoint{
		LogOffset:  logOff,
		LogPath:    o.s.logPath,
		SinkOffset: o.tee.good,
		Tail:       o.tee.st.Snapshot(),
		CutSeq:     o.cutSeq,
	}
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
	if o.tee != nil && !o.catchUp() {
		s.logMu.Unlock()
		fmt.Fprintf(os.Stderr, "serve: SIGHUP with %d sessions held: nothing reopened; send it again once they land\n", len(o.held))
		return
	}
	if s.logFile != nil {
		old := s.logFile
		if size, err := s.openLog(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: reopen log:", err)
		} else {
			s.sink.Reset(newLogWriter(s.logFile, s.combined))
			old.Close()
			if o.tee != nil {
				if err := o.follow(size); err != nil {
					fmt.Fprintln(os.Stderr, "serve: follow reopened log:", err)
				}
			}
		}
	}
	if o.tee != nil {
		if err := o.tee.rotate(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: reopen sessions:", err)
		}
	}
	s.logMu.Unlock()
	if o.ckpt != nil {
		if err := o.checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: checkpoint after rotate:", err)
		}
	}
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
	if o.tee == nil {
		return
	}
	o.catchUp()
	o.tee.st.Drain(o.emit)
	if len(o.held) > 0 {
		o.tee.resetTo(o.tee.good) // leave no torn attempt behind, if the file lets us
		fmt.Fprintf(os.Stderr, "serve: stopping with %d sessions held: %s ends at its last complete batch; the access log has the rest\n",
			len(o.held), o.tee.f.Name())
		return
	}
	if o.ckpt != nil {
		if err := o.checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: final checkpoint:", err)
		}
	}
}

// recoverFromCheckpoint brings the sessionizer back to a state consistent
// with the access log: restore the latest valid snapshot, truncate the
// session file to the recorded offset (dropping the crashed run's
// post-checkpoint writes the replay will re-emit), and replay the log from
// the recorded offset to its end, where the owner goes on reading. A missing,
// corrupt, or stale checkpoint degrades to a full replay from offset zero —
// never to loading bad state.
func (o *owner) recoverFromCheckpoint() error {
	s := o.s
	ck, reason, err := checkpoint.Resume(checkpoint.OS, o.ckpt.Path())
	if err != nil {
		return err
	}
	if reason != "" {
		fmt.Fprintln(os.Stderr, "serve: checkpoint unusable, replaying full log:", reason)
	}
	if err := s.repairLogTail(); err != nil {
		return err
	}
	logInfo, err := s.logFile.Stat()
	if err != nil {
		return err
	}
	if ck != nil {
		_, why := ck.Position([]string{s.logPath}, o.tee.good)
		if why == "" {
			if err := o.tee.st.Restore(ck.Tail); err != nil {
				why = err.Error()
			}
		}
		if why != "" {
			fmt.Fprintln(os.Stderr, "serve: checkpoint stale, replaying full log:", why)
			ck = nil
		}
	}
	if ck == nil {
		// Nothing restored is the checkpoint of an empty run: no records, no
		// cuts, both offsets zero.
		ck = &checkpoint.Checkpoint{}
	}
	if err := o.tee.resetTo(ck.SinkOffset); err != nil {
		return err
	}

	// Load the cut journal: cuts newer than the snapshot (Seq > CutSeq) are
	// re-applied during replay at their recorded record boundaries, so the
	// replayed suffix interleaves timed-expiry emission exactly as the
	// crashed run did. New cuts continue the journal's numbering. Freshly
	// opened, the journal reads from its start; being O_APPEND, it is written
	// at its end wherever the reading stopped.
	allCuts, err := core.ReadCuts(o.cutsFile)
	if err != nil {
		return fmt.Errorf("read cut journal: %w", err)
	}
	pendingCuts := core.CutsAfter(allCuts, ck.CutSeq)
	for _, c := range allCuts {
		if c.Seq > o.cutSeq {
			o.cutSeq = c.Seq
		}
	}
	if o.cutSeq < ck.CutSeq {
		fmt.Fprintf(os.Stderr, "serve: cut journal ends at seq %d but checkpoint recorded %d (journal lost?); continuing\n",
			o.cutSeq, ck.CutSeq)
		o.cutSeq = ck.CutSeq
	}

	// Replay through the chunk reader, checkpointing as we go so a crash
	// during a long recovery does not restart it from scratch; a log
	// truncated under the replay ends it at the short read, and sessions the
	// session file refuses end it at the next chunk. With pending cuts the
	// mid-replay checkpoints are skipped — a snapshot taken between cuts
	// cannot yet say how many of them it contains — so that (rare) recovery
	// shape restarts from the previous checkpoint if interrupted.
	progress := func(pos clf.FilePos) error {
		if err := o.heldErr(pos); err != nil || len(pendingCuts) > 0 {
			return err
		}
		o.ckpt.MaybeSave(func() (*checkpoint.Checkpoint, error) {
			return o.buildCheckpoint(pos.Offset), o.tee.f.Sync() // no save unless synced
		})
		return nil
	}
	malformed, err := o.tee.st.IngestFilesCuts([]string{s.logPath}, clf.FilePos{Offset: ck.LogOffset}, int64(ck.Tail.Stats.Records), pendingCuts, o.emit, progress)
	if err == nil { // the trailing cuts' sessions come after the last chunk
		err = o.heldErr(clf.FilePos{})
	}
	if err != nil {
		return fmt.Errorf("replay %s: %w", s.logPath, err)
	}
	o.off = logInfo.Size()
	if err := o.tee.f.Sync(); err != nil {
		fmt.Fprintln(os.Stderr, "serve: checkpoint: session file sync:", err)
	} else if err := o.ckpt.Save(o.buildCheckpoint(o.off)); err != nil {
		fmt.Fprintln(os.Stderr, "serve: checkpoint:", err)
	}
	stats := o.tee.st.Stats()
	fmt.Printf("recovered from %s: replayed %d bytes of %s (records=%d malformed=%d sessions=%d)\n",
		o.ckpt.Path(), logInfo.Size()-ck.LogOffset, s.logPath, stats.Records, malformed, stats.Sessions)
	return nil
}

// heldErr is a start-up replay's progress check: errHeld once the session
// file refused a write, which stops the replay at the next chunk.
func (o *owner) heldErr(clf.FilePos) error {
	if len(o.held) > 0 {
		return errHeld
	}
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

// sessionTee is the owner's sessionizer and its session file, managed by
// known-good offset: each batch is written at the end of the last complete
// one, and a failed write is truncated away by the next attempt, so a torn
// write never stays in the file.
type sessionTee struct {
	st   *core.Tail
	f    *os.File
	w    io.Writer // sessionWriter(f)
	good int64     // session-file bytes known to hold only complete batches
}

// openSessions opens a session file with its cursor at the end.
func openSessions(path string) (*os.File, int64, error) {
	// O_RDWR (not append-only): writeBatch truncates and seeks.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

func newSessionTee(st *core.Tail, path string) (*sessionTee, error) {
	f, size, err := openSessions(path)
	if err != nil {
		return nil, err
	}
	return &sessionTee{st: st, f: f, w: sessionWriter(f), good: size}, nil
}

// writeBatch writes one batch, atomic at the known-good offset.
func (t *sessionTee) writeBatch(batch []session.Session) error {
	err := func() error {
		if err := t.resetTo(t.good); err != nil {
			return err
		}
		if err := session.WriteAll(t.w, batch); err != nil {
			return err
		}
		off, err := t.f.Seek(0, io.SeekCurrent)
		if err != nil {
			return err
		}
		t.good = off
		return nil
	}()
	if err != nil {
		metricSessionWriteErrors.Inc()
	}
	return err
}

// resetTo truncates the session file to off: a failed attempt's torn write,
// or at recovery everything the replay will re-emit.
func (t *sessionTee) resetTo(off int64) error {
	if err := t.f.Truncate(off); err != nil {
		return err
	}
	if _, err := t.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	t.good = off
	return nil
}

// rotate reopens the session file at its path (SIGHUP).
func (t *sessionTee) rotate() error {
	f, size, err := openSessions(t.f.Name())
	if err != nil {
		return err
	}
	old := t.f
	t.f, t.w, t.good = f, sessionWriter(f), size
	return old.Close()
}
