package checkpoint

import (
	"fmt"
	"io"
	"os"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/session"
)

// Run is the one streaming run of a core.Tail over an access log, behind
// sessionize -stream and serve's owner alike. Recover resumes from the latest
// usable checkpoint and Ingest reads the log from there to its end, replaying
// the journaled expiry cuts still due; serve's owner goes on with Push and
// Expire as its log grows, and a log that ended is closed with Finish. Every
// session goes to Out. A batch Out refuses is held, with every session after
// it, and no more log is read until Retry lands them: whether to stop or to
// retry is the caller's choice — sessionize returns Err, serve's owner
// retries on its next message. A checkpoint is saved behind a sync of Out
// and the cut journal, at the Writer's rate while Ingest reads and at once on
// Save, and never with sessions held: the last checkpoint and the log are
// what a restart needs. A Run starts no goroutine of its own (the chunk
// reader's end before Ingest returns); every method runs on the goroutine
// that owns Tail.
type Run struct {
	Tail *core.Tail
	Out  *Sink
	// Paths is the ordered log set the run reads, and Pos where in it the
	// Tail stands: every record before Pos is in Tail, and every session
	// they finalized is in Out or held. A nil Paths is the reader Ingest is
	// given.
	Paths []string
	Pos   clf.FilePos
	// Ckpt saves the checkpoints Recover resumes from; nil for none.
	Ckpt *Writer
	// Journal is the expiry-cut journal: Recover reads the cuts still due
	// from it and Expire appends to it. nil for none.
	Journal *os.File
	// Notices get one line each, prefixed with Name.
	Notices io.Writer
	Name    string

	cutSeq int64            // the last journaled or restored cut
	cuts   []core.ExpiryCut // the journaled cuts Ingest has still to apply
	held   []session.Session
	err    error // the write Out refused, while sessions are held
	recs   []clf.Record
	out    []session.Session
}

// Recover resumes the run. With Ckpt, the latest usable checkpoint is
// restored into Tail, Out — opened at its end — is cut to the checkpoint's
// SinkOffset, dropping what an interrupted run wrote after it and a replay
// writes again, and Pos moves to where the checkpoint stood in Paths. A
// missing, corrupt or stale checkpoint starts over: Out emptied, Pos at the
// start of Paths. The Journal's cuts after the checkpoint's are kept for
// Ingest, counted from the restored records, and new cuts go on from the
// journal's numbering.
func (r *Run) Recover() error {
	ck := &Checkpoint{} // nothing restored: the checkpoint of an empty run
	if r.Ckpt != nil {
		saved, reason, err := Resume(r.Ckpt.fsys, r.Ckpt.path)
		if err != nil {
			return err
		}
		if reason != "" {
			r.notice("checkpoint unusable, starting over: %s", reason)
		}
		if saved != nil {
			pos, why := saved.Position(r.Paths, r.Out.Good)
			if why == "" {
				if err := r.Tail.Restore(saved.Tail); err != nil {
					why = err.Error()
				}
			}
			if why != "" {
				r.notice("checkpoint stale, starting over: %s", why)
			} else {
				ck, r.Pos = saved, pos
			}
		}
		if err := r.Out.reset(ck.SinkOffset); err != nil {
			return err
		}
		if r.Pos != (clf.FilePos{}) {
			r.notice("resuming %s from byte %d (session file at %d)", r.Paths[r.Pos.File], r.Pos.Offset, ck.SinkOffset)
		}
	}
	if r.Journal == nil {
		return nil
	}
	all, err := core.ReadCuts(r.Journal)
	if err != nil {
		return fmt.Errorf("reading %s: %w", r.Journal.Name(), err)
	}
	r.cuts = core.CutsAfter(all, ck.CutSeq)
	for _, c := range all {
		r.cutSeq = max(r.cutSeq, c.Seq)
	}
	if r.cutSeq < ck.CutSeq {
		r.notice("cut journal ends at seq %d but checkpoint recorded %d (journal lost?); continuing", r.cutSeq, ck.CutSeq)
		r.cutSeq = ck.CutSeq
	}
	if len(r.cuts) > 0 {
		r.notice("replaying %d expiry cuts from %s", len(r.cuts), r.Journal.Name())
	}
	return nil
}

// Ingest reads the log from Pos to its end — Paths, or in when Paths is nil
// — into Tail, applying the pending cuts at their record boundaries, and
// checkpoints at chunk boundaries as the Writer's rate allows. It stops at
// the first chunk boundary after Out refused a batch, and returns that write
// error, or the read error that ended it.
func (r *Run) Ingest(in io.Reader) error {
	progress := func(pos clf.FilePos) error {
		r.Pos = pos
		if r.err != nil {
			return r.err
		}
		// A snapshot between two pending cuts could not say how many of them
		// it holds, so a replay with cuts saves at its end only.
		if r.Ckpt != nil && len(r.cuts) == 0 {
			if _, err := r.Ckpt.MaybeSave(r.snapshot); err != nil {
				r.notice("checkpoint: %v", err)
			}
		}
		return nil
	}
	var err error
	if r.Paths == nil {
		_, err = r.Tail.Ingest(in, r.emit, progress)
	} else {
		_, err = r.Tail.IngestFilesCuts(r.Paths, r.Pos, int64(r.Tail.Stats().Records), r.cuts, r.emit, progress)
	}
	r.cuts = nil
	if err == nil {
		err = r.err // the trailing cuts' sessions come after the last chunk
	}
	return err
}

// Push parses the whole lines of the next stretch of the log, pushes their
// records into Tail, writes the sessions they finalize and moves Pos past
// the lines; it returns the number of records. The caller reads no more log
// while sessions are held.
func (r *Run) Push(lines []byte) int {
	var bad int
	r.recs, bad = clf.ParseChunk(lines, r.recs[:0])
	r.Tail.AddMalformed(bad)
	r.out = r.Tail.PushBatchInto(r.out[:0], r.recs)
	r.emit(r.out)
	r.Pos.Offset += int64(len(lines))
	// Records hold field strings; clear them so the recycled backing array
	// does not pin request data.
	clear(r.recs)
	return len(r.recs)
}

// Expire closes the users quiet for longer than the session gap at now and
// writes their sessions. A sweep that closed anyone is journaled as a cut at
// the Tail's record count, so a replay of the log with the journal closes
// them at the same record boundary; one that closed nobody changed nothing
// a replay could see.
func (r *Run) Expire(now time.Time) error {
	out := r.Tail.Expire(now)
	if len(out) == 0 {
		return nil
	}
	r.emit(out)
	r.cutSeq++
	return core.AppendCut(r.Journal, core.ExpiryCut{Seq: r.cutSeq, Records: int64(r.Tail.Stats().Records), At: now})
}

// Finish writes the sessions of every open burst: the log has ended. With
// sessions held it cuts Out back to its last complete batch, if the file
// lets it, and returns the refused write.
func (r *Run) Finish() error {
	r.Tail.Drain(r.emit)
	if r.err != nil {
		r.Out.reset(r.Out.Good) // no torn attempt left behind, if the file lets us
	}
	return r.err
}

// Save saves a checkpoint at Pos now, unless sessions are held.
func (r *Run) Save() error {
	if r.err != nil {
		return nil
	}
	ck, err := r.snapshot()
	if err != nil {
		return err
	}
	return r.Ckpt.Save(ck)
}

// Retry writes the held sessions again and reports whether none are held.
func (r *Run) Retry() bool {
	if r.err == nil {
		return true
	}
	if r.err = r.Out.WriteBatch(r.held); r.err != nil {
		return false
	}
	r.held = nil
	return true
}

// Held is the number of sessions Out refused and the run holds.
func (r *Run) Held() int { return len(r.held) }

// Err is the write Out refused, while sessions are held.
func (r *Run) Err() error { return r.err }

// emit is the run's session sink: a batch goes to Out, or a copy of it is
// held — batches are lent — when Out refuses it or sessions are held
// already, so no later session lands before a held one.
func (r *Run) emit(batch []session.Session) {
	if len(batch) == 0 {
		return
	}
	if r.err == nil {
		if r.err = r.Out.WriteBatch(batch); r.err == nil {
			return
		}
	}
	for _, s := range batch {
		r.held = append(r.held, s.Clone())
	}
}

// snapshot puts the cut journal and Out on stable storage — a checkpoint
// cites both that far — and describes the run at Pos.
func (r *Run) snapshot() (*Checkpoint, error) {
	if r.Journal != nil {
		if err := r.Journal.Sync(); err != nil {
			return nil, fmt.Errorf("cut journal sync: %w", err)
		}
	}
	if err := r.Out.F.Sync(); err != nil {
		return nil, fmt.Errorf("session file sync: %w", err)
	}
	return &Checkpoint{
		LogOffset: r.Pos.Offset, LogFile: r.Pos.File, LogPath: r.Paths[r.Pos.File],
		SinkOffset: r.Out.Good, Tail: r.Tail.Snapshot(), CutSeq: r.cutSeq,
	}, nil
}

func (r *Run) notice(format string, args ...any) {
	fmt.Fprintf(r.Notices, r.Name+": "+format+"\n", args...)
}

// Sink is a session output written by known-good offset: each batch goes
// after the last complete one, and a batch whose write failed is cut away
// before the next attempt, so a torn batch never stays in the file. Only a
// failed attempt truncates, so a pipe serves as well as a file.
type Sink struct {
	F *os.File
	// W is what batches are written through: F, or a test's fault injector
	// in front of it.
	W io.Writer
	// Good is how many bytes of F hold only complete batches.
	Good int64
	torn bool // the last attempt failed: cut F back to Good first
	n    counter
}

// OpenSink opens the session file at path, created if missing, at its end:
// the output Recover cuts back to a checkpoint's SinkOffset. It is opened
// write-only: a read-write open of a pipe such as /dev/stdout makes the
// process a reader of its own pipe, so a write once the real reader is gone
// blocks instead of failing with EPIPE.
func OpenSink(path string) (*Sink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644) // not append-only: reset truncates and seeks
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Sink{F: f, W: f, Good: size}, nil
}

// WriteBatch writes one batch at Good.
func (s *Sink) WriteBatch(batch []session.Session) error {
	if s.torn {
		if err := s.reset(s.Good); err != nil {
			return err
		}
	}
	s.n = counter{w: s.W}
	if err := session.WriteAll(&s.n, batch); err != nil {
		s.torn = true
		return err
	}
	s.Good += s.n.n
	return nil
}

// reset truncates F to off and writes on from there.
func (s *Sink) reset(off int64) error {
	if err := s.F.Truncate(off); err != nil {
		return err
	}
	if _, err := s.F.Seek(off, io.SeekStart); err != nil {
		return err
	}
	s.Good, s.torn = off, false
	return nil
}

// counter counts the bytes written through it.
type counter struct {
	w io.Writer
	n int64
}

func (c *counter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
