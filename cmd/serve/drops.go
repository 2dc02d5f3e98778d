package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/metrics"
)

// Drop reconciliation: under -shed-mode=drop-count a shed record is served
// and logged but never reaches the live tail — before this ledger existed it
// was simply gone until someone replayed the log offline. The ledger records
// each dropped record's exact byte span in the access log (the request path
// flushes per record under the log lock, so spans are exact and adjacent
// drops coalesce), and the owner re-reads those spans whenever live traffic
// leaves its queue empty and pushes the records into the tail. Conservation
// is then exact and observable: serve.requests == serve.ingest.enqueued once
// serve.drops.pending reaches zero.
var (
	// metricDropsRecorded counts records entered into the drop ledger.
	metricDropsRecorded = metrics.GetCounter("serve.drops.recorded")
	// metricDropsReconciled counts ledger records backfilled into the tail.
	metricDropsReconciled = metrics.GetCounter("serve.drops.reconciled")
	// metricDropsPending is the ledger's current backlog in records.
	metricDropsPending = metrics.GetGauge("serve.drops.pending")
	// metricDropsLost counts ledger records that could not be re-read from
	// the log (rotation moved the file, re-parse failed) — degraded to
	// offline recovery, never silent.
	metricDropsLost = metrics.GetCounter("serve.drops.lost")
)

// dropLedger holds the byte spans of the access log whose records were
// dropped from the live tail and still owe the sessionizer a backfill.
// Spans are coalesced on append and persisted inside each checkpoint
// (Checkpoint.DropSpans), so a crash cannot leak dropped records past the
// accounting. The server's log lock guards it: handlers record under the
// lock they already hold for the append, the owner takes it around every
// other call.
type dropLedger struct {
	spans   []checkpoint.DropSpan
	records int64 // total pending records across spans
}

// record appends the span of one dropped record, merging it into the last
// span when adjacent (consecutive drops under load are the common case, so
// the ledger stays tiny even when millions of records shed).
func (l *dropLedger) record(start, end int64) {
	if end <= start {
		return
	}
	if n := len(l.spans); n > 0 && l.spans[n-1].End == start {
		l.spans[n-1].End = end
		l.spans[n-1].Records++
	} else {
		l.spans = append(l.spans, checkpoint.DropSpan{Start: start, End: end, Records: 1})
	}
	l.records++
	metricDropsPending.Set(l.records)
	metricDropsRecorded.Inc()
}

// snapshot returns the pending spans for checkpointing.
func (l *dropLedger) snapshot() []checkpoint.DropSpan {
	return append([]checkpoint.DropSpan(nil), l.spans...)
}

// restore replaces the ledger with spans from a checkpoint, discarding any
// span at or past logOff: recovery replays the log from logOff, so those
// records re-enter the tail through the replay and backfilling them again
// would double-push. Spans straddling logOff are clipped (defensive — a
// checkpoint is taken with the queue settled, so spans never straddle in
// practice; record counts for clipped spans are re-derived at reconcile time
// from the actual parse).
func (l *dropLedger) restore(spans []checkpoint.DropSpan, logOff int64) {
	l.spans = l.spans[:0]
	l.records = 0
	for _, sp := range spans {
		if sp.Start >= logOff {
			continue
		}
		if sp.End > logOff {
			sp.End = logOff
		}
		l.spans = append(l.spans, sp)
		l.records += sp.Records
	}
	metricDropsPending.Set(l.records)
}

// flushLost empties the ledger, counting everything in it as lost, and
// returns how many records that was. Rotation calls it: spans reference the
// rotated-away file and can no longer be backfilled from s.logPath.
func (l *dropLedger) flushLost() int64 {
	lost := l.records
	l.spans = l.spans[:0]
	l.records = 0
	metricDropsPending.Set(0)
	metricDropsLost.Add(lost)
	return lost
}

// pending reports the ledger backlog in records.
func (l *dropLedger) pending() int64 {
	return l.records
}

// take removes and returns the oldest span, or false when the ledger is
// empty. If the reconciler cannot finish it, the unfinished remainder comes
// back via record-style re-insertion at the front.
func (l *dropLedger) take() (checkpoint.DropSpan, bool) {
	if len(l.spans) == 0 {
		return checkpoint.DropSpan{}, false
	}
	sp := l.spans[0]
	l.spans = l.spans[1:]
	l.records -= sp.Records
	metricDropsPending.Set(l.records)
	return sp, true
}

// putBack re-inserts an unfinished span remainder at the front, preserving
// oldest-first reconciliation order.
func (l *dropLedger) putBack(sp checkpoint.DropSpan) {
	if sp.Records <= 0 || sp.End <= sp.Start {
		return
	}
	l.spans = append([]checkpoint.DropSpan{sp}, l.spans...)
	l.records += sp.Records
	metricDropsPending.Set(l.records)
}

// countingFile counts bytes written through to the underlying writer. The
// access-log writer flushes once per record under the log lock, so the count
// observed before and after a record's flush brackets that record's exact
// byte span — the precision the drop ledger needs.
type countingFile struct {
	w     io.Writer
	total int64
}

func (c *countingFile) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.total += int64(n)
	return n, err
}

// reconcileReadMax bounds the log bytes one reconcile pass reads, however long
// the span: a span coalesces every adjacent drop, so a queue that stayed full
// for a minute is one span of tens of megabytes.
const reconcileReadMax = 64 << 10

// reconcilePass backfills the head of the oldest ledger span: at most one
// read of reconcileReadMax bytes and one push of drainBatchMax records,
// straight into the tail — the owner is the tail's only pusher, so there is
// no queue slot to win. Whatever of the span it did not reach goes back to
// the ledger clipped to exactly the unprocessed suffix; records that cannot
// be re-read are counted lost, never silently skipped. It reports whether
// the ledger still owes records a further pass could backfill.
func (o *owner) reconcilePass() (more bool) {
	s := o.s
	if s.drops == nil {
		return false
	}
	s.logMu.Lock()
	sp, ok := s.drops.take()
	s.logMu.Unlock()
	if !ok {
		return false
	}
	rest := sp // what goes back to the ledger
	defer func() {
		s.logMu.Lock()
		s.drops.putBack(rest)
		more = more && s.drops.pending() > 0
		s.logMu.Unlock()
	}()
	f, err := os.Open(s.logPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve: reconcile open log:", err)
		return false
	}
	buf := make([]byte, min(sp.End-sp.Start, reconcileReadMax))
	_, err = f.ReadAt(buf, sp.Start)
	f.Close()
	if err != nil {
		// The span is unreadable (rotated away?): it can never be backfilled
		// from this file again. Count it lost; the rotated log still holds
		// the records for offline recovery.
		metricDropsLost.Add(sp.Records)
		fmt.Fprintf(os.Stderr, "serve: reconcile read span [%d,%d): %v (counted lost)\n", sp.Start, sp.End, err)
		rest = checkpoint.DropSpan{}
		return true
	}
	if nl := bytes.LastIndexByte(buf, '\n'); nl >= 0 && sp.End-sp.Start > reconcileReadMax {
		buf = buf[:nl+1] // a partial read ends at its last whole line
	}

	// Parse line by line, tracking the byte offset so the remainder goes back
	// clipped to exactly the unprocessed suffix.
	off := sp.Start
	var lost int64
	batch := o.batch[:0]
	for len(buf) > 0 && len(batch) < drainBatchMax {
		line, after, _ := bytes.Cut(buf, []byte{'\n'})
		off += int64(len(buf) - len(after))
		buf = after
		rec, _, perr := clf.ParseAnyRecordBytes(line)
		if perr != nil {
			// Logged lines are sanitized to re-parse; a failure here means
			// the file changed under us. Skip the line, count it lost.
			lost++
			continue
		}
		batch = append(batch, rec)
	}
	admitted := int64(len(batch))
	o.push(batch)
	metricEnqueued.Add(admitted)
	metricDropsReconciled.Add(admitted)
	metricDropsLost.Add(lost)
	if off >= sp.End && admitted+lost != sp.Records {
		// Coalesced span accounting drifted from the actual line count —
		// surface it rather than silently absorbing the difference.
		fmt.Fprintf(os.Stderr, "serve: reconcile span ending at %d: parsed %d records (%d lost), ledger said %d\n",
			sp.End, admitted, lost, sp.Records)
	}
	rest = checkpoint.DropSpan{Start: off, End: sp.End, Records: sp.Records - admitted - lost}
	return true
}
