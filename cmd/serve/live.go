package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
	"smartsra/internal/webserver"
)

// owner is the one goroutine behind the ingest queue (run), and the state
// only it touches once serving starts: the tail, the session file, the cut
// journal and its numbering, the checkpoint writer. Everything that happens
// to that state — a batch of records, an expiry, a checkpoint, a reconcile
// pass, a rotation, shutdown — is a message its single select takes, so each
// happens at an exact record boundary with no lock to say so. The one thing
// it shares with the request path is the server's log lock, which it takes
// to checkpoint or rotate (freezing the log while it empties the queue) and
// around its reads and writes of the drop ledger.
type owner struct {
	s *server

	tee *sessionTee // nil without -sessions: only rotation is left to do
	// cutsFile journals timed-expiry cuts (<sessions>.cuts) so an offline
	// replay can reproduce periodic Expire emission exactly; nil unless the
	// live tail's input is a prefix-replay of the log (503 mode), which is
	// when byte-identity is claimed. cutSeq is the last journaled (or
	// restored) cut's sequence number.
	cutsFile *os.File
	cutSeq   int64
	ckpt     *checkpoint.Writer // nil without -checkpoint

	batch []clf.Record      // recycled queue batch
	out   []session.Session // recycled session output of one push

	// The owner's inbox beside the record queue. run fills the tick channels
	// from tickers and hup from the signal; tests fire them by hand. A nil
	// channel is a case that never fires.
	now           func() time.Time
	expireTick    <-chan time.Time
	ckptTick      <-chan time.Time
	reconcileTick <-chan time.Time
	hup           <-chan os.Signal
	// owed is ready (closed) from a reconcile tick until a pass finds the drop
	// ledger empty, so backfill continues pass by pass between other messages.
	owed    <-chan struct{}
	quit    chan time.Duration // stop request: how long to wait for stragglers
	settled chan bool          // the stop sequence's answer
}

// drainBatchMax bounds how many records one push hands the sessionizer: one
// metrics flush and one session write per batch.
const drainBatchMax = 256

// ready is the always-ready channel owed points at.
var ready = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// newOwner opens everything the options name and brings the sessionizer up
// to date with it — checkpoint recovery or -backfill — single-threaded,
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

	s := &server{g: g, combined: opts.combined, logPath: opts.logPath, shedMode: opts.shedMode}
	o := &owner{s: s, now: time.Now, quit: make(chan time.Duration), settled: make(chan bool, 1)}
	defer func() {
		if err != nil {
			o.close()
		}
	}()
	out := io.Writer(os.Stderr)
	if opts.logPath != "" {
		if err := s.openLog(); err != nil {
			return nil, err
		}
		out = s.logCount
	}
	s.sink = webserver.NewWriterSink(newLogWriter(out, opts.combined))
	if opts.sessPath == "" {
		return o, nil
	}

	var backfill []string
	if opts.backfill != "" {
		if backfill, err = clf.ResolveLogPaths(opts.backfill); err != nil {
			return nil, err
		}
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
	s.capacity = int64(opts.queueCap)
	s.ch = make(chan clf.Record, opts.queueCap) // one buffer slot per reservable slot
	metricQueueDepth.Set(s.capacity)

	if opts.shedMode == shed503 {
		// Journal timed-expiry cuts beside the session file: in 503 mode the
		// tail's input is a prefix-replay of the log, so replaying the log
		// with these cuts reproduces the live emission byte for byte even
		// with -expire-every on. Without a checkpoint the tail starts fresh
		// and old cut indices are meaningless, so truncate.
		mode := os.O_CREATE | os.O_RDWR | os.O_APPEND
		if opts.ckptPath == "" {
			mode |= os.O_TRUNC
		}
		if o.cutsFile, err = os.OpenFile(opts.sessPath+".cuts", mode, 0o644); err != nil {
			return nil, err
		}
	} else if opts.logPath != "" {
		s.drops = &dropLedger{}
	}

	if opts.ckptPath != "" {
		o.ckpt = checkpoint.NewWriter(checkpoint.OS, opts.ckptPath, opts.ckptEvery)
		err = o.recoverFromCheckpoint()
	} else if opts.backfill != "" {
		err = o.tee.backfill(backfill)
	}
	return o, err
}

// close releases the files newOwner (or a rotation since) opened.
func (o *owner) close() {
	o.s.logFile.Close()
	o.cutsFile.Close()
	if o.tee != nil {
		o.tee.f.Close()
		o.tee.dead.Close()
	}
}

// run is the owner goroutine: it takes one message at a time until a stop
// request, and answers that with the stop sequence.
func (o *owner) run() {
	for {
		select {
		case rec := <-o.s.ch:
			o.pushFrom(rec)
		case <-o.expireTick:
			o.expire()
		case <-o.ckptTick:
			if err := o.checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "serve: checkpoint:", err)
			}
		case <-o.reconcileTick:
			o.owed = ready
		case <-o.owed:
			// Live traffic has strict priority: a pass only runs against an
			// empty queue, and is short enough to look again soon.
			if len(o.s.ch) == 0 && !o.reconcilePass() {
				o.owed = nil
			}
		case <-o.hup:
			fmt.Println("caught SIGHUP, reopening log files")
			o.rotate()
		case wait := <-o.quit:
			o.settled <- o.shutdown(wait)
			return
		}
	}
}

// stop ends the owner goroutine through its stop sequence, giving handlers
// that still hold a queue slot up to wait to deliver, and reports whether
// every reserved slot was delivered and processed.
func (o *owner) stop(wait time.Duration) bool {
	o.quit <- wait
	return <-o.settled
}

// pushFrom takes first and whatever else is already queued, up to a batch,
// through the sessionizer, then releases their slots. Under load one metrics
// flush and one session write cover many records.
func (o *owner) pushFrom(first clf.Record) {
	batch := append(o.batch[:0], first)
fill:
	for len(batch) < drainBatchMax {
		select {
		case rec := <-o.s.ch:
			batch = append(batch, rec)
		default:
			break fill
		}
	}
	n := int64(len(batch))
	o.push(batch)
	metricPending.Set(o.s.pending.Add(-n))
}

// push feeds a batch built on o.batch to the tail, writes whatever sessions
// it finalized, and takes the batch back for reuse.
func (o *owner) push(batch []clf.Record) {
	o.out = o.tee.st.PushBatchInto(o.out[:0], batch)
	o.tee.sink.Emit(o.out)
	// Records hold field strings; clear them so the recycled backing array
	// does not pin request data.
	clear(batch)
	o.batch = batch[:0]
}

// settle empties the queue into the tail. The caller holds the log lock, so
// nothing can be logged or queued meanwhile: on return every logged record is
// in the tail and its sessions in the session file — the consistent cut a
// checkpoint or a rotation needs. (A 503-mode handler that reserved a slot
// but has not reached the log yet is simply not part of the cut.)
func (o *owner) settle() {
	start := time.Now()
	for {
		select {
		case rec := <-o.s.ch:
			o.pushFrom(rec)
		default:
			metricBarrierWait.Observe(time.Since(start).Seconds())
			return
		}
	}
}

// expire finalizes quiet users so a user who leaves still gets their last
// session written. It needs no freeze: the owner is the only pusher, so the
// tail's record count between two messages is an exact record boundary. That
// boundary is what makes timed expiry replayable: when the cut journal is
// active, a sweep that emitted sessions is recorded as (seq, tail record
// count, cutoff), and an offline replay applying Expire(cutoff) after exactly
// that many records reproduces the live emission byte for byte. Sweeps that
// emit nothing are not journaled — an empty Expire changes no output-relevant
// state.
func (o *owner) expire() {
	now := o.now()
	out := o.tee.st.Expire(now)
	if len(out) == 0 {
		return
	}
	o.tee.sink.Emit(out)
	if o.cutsFile != nil {
		o.cutSeq++
		cut := core.ExpiryCut{Seq: o.cutSeq, Records: int64(o.tee.st.Stats().Records), At: now}
		if err := core.AppendCut(o.cutsFile, cut); err != nil {
			fmt.Fprintln(os.Stderr, "serve: cut journal:", err)
		}
	}
}

// checkpoint saves one under the log lock — handlers wait at the log append
// for as long as settling, the syncs, the snapshot and the save take. Without
// settle a logged-but-still-queued record would be inside the checkpoint's
// log offset but absent from its tail snapshot, and recovery would lose it.
func (o *owner) checkpoint() error {
	s := o.s
	s.logMu.Lock()
	defer s.logMu.Unlock()
	o.settle()
	if err := s.sink.Flush(); err != nil {
		return err
	}
	if err := s.logFile.Sync(); err != nil {
		return err
	}
	if o.cutsFile != nil {
		// The snapshot's CutSeq refers into the journal; make sure the
		// journal is at least as durable as the checkpoint that cites it.
		if err := o.cutsFile.Sync(); err != nil {
			return err
		}
	}
	info, err := s.logFile.Stat()
	if err != nil {
		return err
	}
	return o.ckpt.Save(o.buildCheckpoint(info.Size()))
}

// buildCheckpoint assembles a checkpoint at the given access-log offset. The
// caller guarantees nothing is pushed or logged meanwhile (the log lock with
// the queue settled, or single-threaded recovery), so the session-file sync,
// the offset, and the snapshot are one consistent cut.
func (o *owner) buildCheckpoint(logOff int64) *checkpoint.Checkpoint {
	if err := o.tee.f.Sync(); err != nil {
		fmt.Fprintln(os.Stderr, "serve: session file sync:", err)
	}
	ck := &checkpoint.Checkpoint{
		LogOffset:  logOff,
		LogPath:    o.s.logPath,
		SinkOffset: o.tee.good,
		Tail:       o.tee.st.Snapshot(),
		CutSeq:     o.cutSeq,
	}
	if o.s.drops != nil {
		ck.DropSpans = o.s.drops.snapshot()
	}
	return ck
}

// rotate reopens the access-log and session files in place (SIGHUP /
// logrotate). Under the log lock no request is mid-write, and the queue is
// settled first so the old log and the sessions emitted from it rotate as a
// pair; a fresh checkpoint follows at once because the old one's offsets
// refer to the rotated-away files.
func (o *owner) rotate() {
	s := o.s
	s.logMu.Lock()
	if o.tee != nil {
		o.settle()
	}
	if s.logFile != nil {
		if err := s.sink.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: log flush on rotate:", err)
		}
		old := s.logFile
		if err := s.openLog(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: reopen log:", err)
		} else {
			s.sink.Reset(newLogWriter(s.logCount, s.combined))
			old.Close()
			if s.drops != nil {
				// Pending drop spans reference byte offsets in the
				// rotated-away file; reading those offsets from the fresh
				// file would backfill the wrong records. Count them lost
				// (the rotated log still holds them for offline recovery).
				if lost := s.drops.flushLost(); lost > 0 {
					fmt.Fprintf(os.Stderr, "serve: rotation orphaned %d unreconciled dropped records (recover them offline from the rotated log)\n", lost)
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

// openLog opens (or reopens) the access log for appending and starts
// counting bytes at its current size, so the drop ledger can record each
// shed record's exact span (the per-record flush under the log lock makes
// before/after counts bracket exactly one record).
func (s *server) openLog() error {
	f, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	s.logFile = f
	s.logCount = &countingFile{w: f, total: info.Size()}
	return nil
}

// shutdown is the stop sequence, the same for a signal and a listener error:
// settle the queue, backfill what the drop ledger still owes, flush every
// open burst, and checkpoint the result. It waits up to wait for handlers
// still holding a slot (one past the HTTP shutdown deadline can still log and
// send — its slot guarantees it buffer space); if one never delivers, the cut
// never settled, so the final checkpoint is skipped and the next start
// replays the log instead of trusting it.
func (o *owner) shutdown(wait time.Duration) (settled bool) {
	if o.tee == nil {
		return true
	}
	s := o.s
	timeout := time.NewTimer(wait)
	defer timeout.Stop()
	settled = true
	for settled && s.pending.Load() > 0 {
		select {
		case rec := <-s.ch:
			o.pushFrom(rec)
		case <-timeout.C:
			settled = false
			fmt.Fprintln(os.Stderr, "serve: ingest queue did not settle; skipping final checkpoint (next start replays the log)")
		}
	}
	if s.drops != nil {
		// Last chance to settle the conservation accounting in-process.
		end := time.Now().Add(wait)
		for more := settled; more && time.Now().Before(end); {
			more = o.reconcilePass()
		}
		s.logMu.Lock()
		owed := s.drops.pending()
		s.logMu.Unlock()
		if owed > 0 {
			fmt.Fprintf(os.Stderr, "serve: %d dropped records still unreconciled at shutdown (replay the log offline to recover them)\n", owed)
		}
	}
	o.tee.st.Drain(o.tee.sink.Emit)
	if o.ckpt != nil && settled {
		if err := o.checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: final checkpoint:", err)
		}
	}
	return settled
}

// recoverFromCheckpoint brings the sessionizer back to a state consistent
// with the access log: restore the latest valid snapshot, truncate the
// session file to the recorded offset (dropping the crashed run's
// post-checkpoint writes the replay will re-emit), and replay the log from
// the recorded offset. A missing, corrupt, or stale checkpoint degrades to
// a full replay from offset zero — never to loading bad state.
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
	switch {
	case ck == nil:
	case ck.LogPath != "" && ck.LogPath != s.logPath:
		fmt.Fprintf(os.Stderr, "serve: checkpoint was for %s, -log is %s, replaying full log\n",
			ck.LogPath, s.logPath)
		ck = nil
	case ck.LogOffset > logInfo.Size() || ck.SinkOffset > o.tee.good:
		fmt.Fprintf(os.Stderr, "serve: checkpoint is ahead of %s/%s (rotated?), replaying full log\n",
			s.logPath, o.tee.f.Name())
		ck = nil
	default:
		if err := o.tee.st.Restore(ck.Tail); err != nil {
			fmt.Fprintln(os.Stderr, "serve: checkpoint rejected, replaying full log:", err)
			ck = nil
		}
	}
	if ck == nil {
		// Nothing restored is the checkpoint of an empty run: no records, no
		// cuts, no drop spans, both offsets zero.
		ck = &checkpoint.Checkpoint{}
	}
	if err := o.tee.resetTo(ck.SinkOffset); err != nil {
		return err
	}

	// Load the cut journal: cuts newer than the snapshot (Seq > CutSeq) are
	// re-applied during replay at their recorded record boundaries, so the
	// replayed suffix interleaves timed-expiry emission exactly as the
	// crashed run did. New cuts continue the journal's numbering.
	var pendingCuts []core.ExpiryCut
	if o.cutsFile != nil {
		// Freshly opened, the journal reads from its start; being O_APPEND,
		// it is written at its end wherever the reading stopped.
		allCuts, err := core.ReadCuts(o.cutsFile)
		if err != nil {
			return fmt.Errorf("read cut journal: %w", err)
		}
		pendingCuts = core.CutsAfter(allCuts, ck.CutSeq)
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
	}
	if s.drops != nil {
		s.drops.restore(ck.DropSpans, ck.LogOffset)
	}

	// Replay through the chunk reader, checkpointing as we go so a crash
	// during a long recovery does not restart it from scratch; a log
	// truncated under the replay ends it at the short read. With pending
	// cuts the mid-replay checkpoints are skipped — a snapshot taken between
	// cuts cannot yet say how many of them it contains — so that (rare)
	// recovery shape restarts from the previous checkpoint if interrupted.
	progress := func(pos clf.FilePos) error {
		o.ckpt.MaybeSave(func() *checkpoint.Checkpoint {
			return o.buildCheckpoint(pos.Offset)
		})
		return nil
	}
	if len(pendingCuts) > 0 {
		progress = nil
	}
	malformed, err := o.tee.st.IngestFilesCuts([]string{s.logPath}, clf.FilePos{Offset: ck.LogOffset}, int64(ck.Tail.Stats.Records), pendingCuts, o.tee.sink.Emit, progress)
	if err != nil {
		return fmt.Errorf("replay %s: %w", s.logPath, err)
	}
	if err := o.ckpt.Save(o.buildCheckpoint(logInfo.Size())); err != nil {
		fmt.Fprintln(os.Stderr, "serve: checkpoint:", err)
	}
	stats := o.tee.st.Stats()
	fmt.Printf("recovered from %s: replayed %d bytes of %s (records=%d malformed=%d sessions=%d)\n",
		o.ckpt.Path(), logInfo.Size()-ck.LogOffset, s.logPath, stats.Records, malformed, stats.Sessions)
	return nil
}

// repairLogTail terminates a torn final line a crashed run may have left in
// the access log, so freshly served records do not concatenate onto it.
func (s *server) repairLogTail() error {
	info, err := s.logFile.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		return nil
	}
	f, err := os.Open(s.logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, info.Size()-1); err != nil {
		return err
	}
	if last[0] != '\n' {
		if _, err := s.logFile.WriteString("\n"); err != nil {
			return err
		}
	}
	return nil
}

// sessionTee is the owner's sessionizer and its session file: finalized
// sessions are appended through a RetrySink — transient write failures back
// off and retry, persistent ones are journaled to the dead-letter file, and
// every outcome is counted. The file is managed by known-good offset: before
// each attempt it is truncated back to the last complete batch, so a torn
// write from a failed attempt is healed by its own retry instead of
// corrupting the file.
type sessionTee struct {
	st   *core.Tail
	sink *core.RetrySink
	f    *os.File
	good int64    // session-file bytes known to hold only complete batches
	dead *os.File // the dead-letter journal
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
	// Read-write too, so the RetrySink can re-ingest and truncate the
	// journal once the session file recovers.
	dead, err := os.OpenFile(path+".deadletter", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		f.Close()
		return nil, err
	}
	t := &sessionTee{st: st, f: f, good: size, dead: dead}
	t.sink = core.NewRetrySink(t.writeBatch, core.RetryOptions{DeadLetter: dead})
	return t, nil
}

// writeBatch is the RetrySink's write function: one batch, atomic at the
// known-good offset.
func (t *sessionTee) writeBatch(batch []session.Session) error {
	err := func() error {
		if err := t.resetTo(t.good); err != nil {
			return err
		}
		if err := session.WriteAll(t.f, batch); err != nil {
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
	t.f, t.good = f, size
	return old.Close()
}

// backfill streams an existing access log set — plain, gzip, or a rotated
// sequence — through the sessionizer before the server starts, in bounded
// heap regardless of the logs' size. Bursts still open at the end of the
// history stay buffered so live traffic from the same users continues them
// seamlessly.
func (t *sessionTee) backfill(paths []string) error {
	malformed, err := t.st.IngestFiles(paths, clf.FilePos{}, t.sink.Emit, nil)
	if err != nil {
		return fmt.Errorf("backfill %s: %w", strings.Join(paths, ","), err)
	}
	stats := t.st.Stats()
	fmt.Printf("backfilled %s: records=%d malformed=%d sessions=%d (open bursts carry into live traffic)\n",
		strings.Join(paths, ","), stats.Records, malformed, stats.Sessions)
	return nil
}
