package core

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// ExpiryCut records one timed Expire a live sessionizer performed, placed
// exactly in its record stream: after Records records had been pushed (and
// before the next one), Expire(At) ran and its sessions were emitted. A run
// that journals every cut makes periodic expiry replayable — an offline pass
// over the same records that applies Expire(At) at the same boundaries
// reproduces the live output byte for byte, because both runs perform the
// identical operation sequence on the same deterministic state machine.
//
// The boundary is a record count, not a byte offset, so cuts compose with
// multi-file input sets and gzip members: whatever the source, the Nth
// record pushed is the Nth record pushed.
type ExpiryCut struct {
	// Seq orders cuts within a run (1-based, strictly increasing). Crash
	// recovery uses it to skip cuts already baked into a restored snapshot:
	// a checkpoint records the last applied Seq, and replay re-applies only
	// later ones.
	Seq int64
	// Records is the number of records the sessionizer had been fed when the
	// cut was taken. The cut applies after record Records and before record
	// Records+1.
	Records int64
	// At is the wall-clock cutoff Expire ran with.
	At time.Time
}

// AppendCut writes one cut journal line. The format is a plain text record —
// "cut <seq> <records> <unixnano>\n" — so a torn final line from a crash is
// detectable (no trailing newline) and the journal remains greppable.
func AppendCut(w io.Writer, c ExpiryCut) error {
	_, err := fmt.Fprintf(w, "cut %d %d %d\n", c.Seq, c.Records, c.At.UnixNano())
	return err
}

// ReadCuts parses a cut journal. A final line without a terminating newline
// is a torn append from a crash and is ignored — every complete line before
// it is still valid. Any malformed complete line is an error: the journal is
// machine-written, so a bad line means corruption, and replaying around it
// would silently produce a different session stream. A well-formed line is
// exactly what AppendCut writes: "cut" and three integers, one space apart,
// each as strconv.FormatInt prints it (no sign but a minus, no leading zero).
func ReadCuts(r io.Reader) ([]ExpiryCut, error) {
	var cuts []ExpiryCut
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			// No newline: torn final append, ignore it.
			return cuts, nil
		}
		if err != nil {
			return nil, err
		}
		c, ok := parseCut(line[:len(line)-1])
		if !ok {
			return nil, fmt.Errorf("core: cut journal line %d: malformed: %q", len(cuts)+1, line)
		}
		if c.Seq <= 0 || c.Records < 0 {
			return nil, fmt.Errorf("core: cut journal line %d: non-positive seq or negative records: %q", len(cuts)+1, line)
		}
		cuts = append(cuts, c)
	}
}

// parseCut parses one journal line without its newline, accepting only
// AppendCut's rendering.
func parseCut(line string) (c ExpiryCut, ok bool) {
	f := strings.Split(line, " ")
	if len(f) != 4 || f[0] != "cut" {
		return c, false
	}
	var v [3]int64
	for i, s := range f[1:] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || strconv.FormatInt(n, 10) != s {
			return c, false
		}
		v[i] = n
	}
	return ExpiryCut{Seq: v[0], Records: v[1], At: time.Unix(0, v[2])}, true
}

// CutsAfter returns the cuts with Seq > seq, sorted by Seq — the suffix a
// crash recovery must re-apply on top of a snapshot that recorded seq as its
// last applied cut.
func CutsAfter(cuts []ExpiryCut, seq int64) []ExpiryCut {
	out := make([]ExpiryCut, 0, len(cuts))
	for _, c := range cuts {
		if c.Seq > seq {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// cutFeeder builds the per-chunk delivery function ingestion hands to the
// clf chunk reader: each chunk's page views — one per record, staged on the
// parser goroutine, filtered and unresolved records included — go to the
// Tail whole — one metrics flush per chunk — through pushBatchTo, whose
// output is pinned byte-identical to a record-at-a-time Push loop. One
// session buffer serves the whole ingestion: batches are lent to the sink, so
// each reuses the previous one's storage and the steady state allocates
// nothing per batch.
//
// With cuts it also replays them: records are counted as they are pushed
// (starting from base, the restored snapshot's record count), and whenever
// the next cut's boundary is reached the chunk is split there, Expire(cut.At)
// runs, and its sessions go to the sink in place — exactly the interleaving
// the live run journaled. Splitting never changes emission.
//
// The returned flush applies any cuts at or past the final record count
// (expiry that fired after the last record arrived); call it after the
// stream ends, before Flush or Drain.
func (t *Tail) cutFeeder(sink SessionSink, base int64, cuts []ExpiryCut) (feed func([]pageView), flush func()) {
	count := base
	ci := 0
	var buf []session.Session
	applyDue := func() {
		for ci < len(cuts) && cuts[ci].Records <= count {
			deliver(sink, t.Expire(cuts[ci].At), false)
			ci++
		}
	}
	feed = func(views []pageView) {
		for len(views) > 0 {
			applyDue()
			n := len(views)
			if ci < len(cuts) {
				if room := cuts[ci].Records - count; int64(n) > room {
					n = int(room)
				}
			}
			buf = t.pushBatchTo(buf, views[:n], sink)
			count += int64(n)
			views = views[n:]
		}
	}
	return feed, applyDue
}

// IngestFilesCuts is IngestFiles with timed-expiry replay: base is the
// record count already in the Tail (0 for a fresh one, the restored
// snapshot's Stats.Records after recovery) and cuts are the journaled
// expiries to apply at their recorded record boundaries, in order. With the
// cuts a live run journaled, the emitted session stream is byte-identical to
// that run's — periodic expiry stops being a source of divergence and
// becomes part of the replayed input.
func (t *Tail) IngestFilesCuts(paths []string, start clf.FilePos, base int64, cuts []ExpiryCut, sink SessionSink, progress func(clf.FilePos) error) (malformed int, err error) {
	return t.ingest(logInput{paths: paths, start: start, base: base, cuts: cuts}, sink, progress)
}
