package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Tail is the incremental counterpart of Pipeline: it consumes access-log
// records one at a time (e.g. from a live log tail) and emits reconstructed
// sessions as soon as they can no longer change.
//
// Records are buffered per user into "activity bursts". A user's burst is
// closed — and handed to the heuristic — when a new record arrives more
// than the page-stay bound ρ after the burst's last request, when the log's
// own clock has run 2ρ past it, or when Expire/Flush decides the user has
// gone quiet. Because every heuristic's sessions never span a gap larger
// than ρ (that is the Phase-1 page-stay rule), burst-at-a-time
// reconstruction is exactly equivalent to batch processing for Smart-SRA and
// the time-gap heuristic; the time-total and navigation heuristics can merge
// across >ρ gaps in batch mode, so their streamed output may split earlier
// (documented, covered by tests).
//
// The log's clock is the newest request among the open users. Whenever it
// minus ρ enters a new ρ-wide bucket of the expiry wheel, the pushing call
// closes, in user order, every user quiet for more than 2ρ of log time (the
// sweep). One ρ is the burst gap, the other a lateness allowance: a record at
// most ρ behind the newest finds its user's burst as an in-order log would
// have left it, so it is sessionized exactly as in order; a record more than
// ρ behind whose user the sweep already closed opens a new burst. The clock
// is a function of the open users — Restore recomputes it, and it is
// forgotten when the Tail empties — so checkpoints need no field for it.
//
// Memory is bounded by the ACTIVE users: when the sweep, Expire or Flush
// closes a user's burst the user is evicted from the buffer map (and their
// burst and entry storage recycled), so a tail holds state only for users
// inside the current activity window — on a file with no Expire, the log's
// last 2ρ to 3ρ — not for every user ever seen. The price is in Stats.Users:
// a user who returns after eviction is counted again, so Users counts user
// activity periods, not lifetime-unique users — exact unique counting would
// require remembering every user forever, which is the unbounded growth this
// design removes.
//
// Tail is not safe for concurrent use: one goroutine owns it. A periodic
// Expire beside ingestion runs on that goroutine too, between two chunks
// (Config.ExpireTick).
type Tail struct {
	cfg      Config
	rho      time.Duration
	rhoNano  int64 // rho.Nanoseconds(), for the per-record integer gap check
	buffers  map[string]*burst
	buffered int // entries currently held in open bursts, across all users
	stats    Stats
	// closeInto reconstructs on one of two lanes. kept serves the
	// slice-returning calls, whose sessions are the caller's to keep: it is
	// never released. lent serves pushBatchTo and Drain, which release it
	// after each sink return (SessionSink's rule). lending says which.
	kept, lent *lane
	lending    bool

	// wheel is the expiry wheel: open-burst users bucketed by the
	// ρ-granularity time bucket of their last activity as of insertion.
	// Entries are lazily revalidated — a user who stayed active is moved
	// forward to the bucket of their true last activity when their old
	// bucket comes up — so Push never pays a bucket move and Expire visits
	// only users whose buckets have aged past the cutoff: O(active), not
	// O(ever seen).
	wheel map[int64][]string
	// clock is the log's own time, which the sweep in pushStaged reads.
	clock logClock

	// Free lists recycle the per-burst storage that eviction and growth
	// retire: burst headers, and []session.Entry backing arrays by capacity
	// class (freeEntries[c] holds arrays of burstCap<<c entries). All are
	// bounded so a transient spike does not pin memory forever.
	freeBursts  []*burst
	freeEntries [entryClasses][][]session.Entry

	// Deferred mirrors of the process-wide metrics: pushResolved and close
	// touch only these plain fields, and syncMetrics folds them into the
	// atomic registry once per public operation (per batch, not per record).
	pendingRecords  int64
	pendingSessions int64
	lastBuffered    int64
	maxDepth        int64
	syncedMaxDepth  int64
}

// Entry arrays come in capacity classes: class c holds burstCap<<c entries.
// A burst starts at class 0 and moves up one class each time it fills its
// array, handing the full one back, so it never holds more than twice its
// entries or burstCap; a closed burst's array goes back to its own class,
// never to a new burst, which would leave a long burst's capacity to a short
// one. The free lists keep at most maxFreeBursts headers and, in class c,
// maxFreeEntries>>c arrays: the same number of slots in every class.
const (
	maxFreeBursts  = 512
	maxFreeEntries = 512
	burstCap       = 16
	entryClasses   = 7 // up to 1024 entries; a longer burst grows by append
)

// burst is one user's open request run. lastNano mirrors last.UnixNano()
// so the per-record gap check compares plain integers instead of paying
// time.Time.Sub; it is math.MinInt64 while the burst has no activity.
// unsorted records that some entry arrived with a timestamp below the
// burst's max at append time — exactly when the entries slice is out of
// order — so close sorts only bursts that need it, without a scan.
type burst struct {
	entries  []session.Entry
	last     time.Time
	lastNano int64
	unsorted bool
}

// NewTail builds a streaming processor from the same Config as NewPipeline
// plus the burst gap ρ (zero means the paper's 10 minutes).
func NewTail(cfg Config, rho time.Duration) (*Tail, error) {
	p, err := NewPipeline(cfg) // reuse validation and defaulting
	if err != nil {
		return nil, err
	}
	if rho == 0 {
		rho = session.DefaultPageStay
	}
	if rho < 0 {
		return nil, fmt.Errorf("core: negative burst gap %v", rho)
	}
	return &Tail{
		cfg:     p.cfg,
		rho:     rho,
		rhoNano: rho.Nanoseconds(),
		buffers: make(map[string]*burst),
		wheel:   make(map[int64][]string),
		clock:   idleClock,
		kept:    newLane(p.cfg.Heuristic),
		lent:    newLane(p.cfg.Heuristic),
	}, nil
}

// Push feeds one record, returning any sessions finalized by its arrival
// (usually none; occasionally the previous burst of the same user).
// Malformed-record handling belongs to the caller (clf.Scanner skips them).
func (t *Tail) Push(rec clf.Record) []session.Session {
	out := t.pushStaged(nil, t.cfg.stage(&rec))
	t.syncMetrics()
	return out
}

// PushBatch feeds a slice of records, returning the sessions they finalized
// in exactly the order a record-at-a-time Push loop would have returned
// them. It is the amortized hot path: stage counters and metrics flush once
// per batch instead of once per record. The input slice is not retained.
func (t *Tail) PushBatch(recs []clf.Record) []session.Session {
	return t.PushBatchInto(nil, recs)
}

// PushBatchInto is PushBatch appending onto dst, for callers that hand the
// result straight to a sink and recycle the buffer (pass dst[:0]): a
// long-running push loop stays allocation-free on the output side. The
// appended sessions are the caller's, as with PushBatch.
func (t *Tail) PushBatchInto(dst []session.Session, recs []clf.Record) []session.Session {
	for i := range recs {
		dst = t.pushStaged(dst, t.cfg.stage(&recs[i]))
	}
	t.syncMetrics()
	return dst
}

// pushBatchTo is the sink-delivering PushBatch the ingest feeder drives, over
// records the parser has already staged: the sessions views finalize are
// built in buf (the feeder's recycled buffer, returned for the next call) and
// lent to sink.
func (t *Tail) pushBatchTo(buf []session.Session, views []pageView, sink SessionSink) []session.Session {
	t.lending = true
	buf = buf[:0]
	for i := range views {
		buf = t.pushStaged(buf, views[i])
	}
	t.syncMetrics()
	t.lending = false
	deliver(sink, buf, true)
	t.lent.release()
	return buf
}

// pushStaged is the one push body, behind Push, PushBatch and ingestion:
// count the staged record, buffer it, then sweep if it moved the log's clock
// into a new bucket. Finalized sessions are appended onto dst; the caller
// syncs metrics.
func (t *Tail) pushStaged(dst []session.Session, v pageView) []session.Session {
	t.stats.Records++
	t.pendingRecords++
	switch v.res {
	case stageFiltered:
		t.stats.Filtered++
		return dst
	case stageUnresolved:
		t.stats.Unresolved++
		return dst
	}
	dst = t.pushResolved(dst, v.user, v.page, v.at)
	if cut, ok := t.clock.advance(v.at, t.rho); ok {
		dst = t.closeUsers(dst, t.agedUsers(cut))
	}
	return dst
}

// pushResolved buffers one already-cleaned, already-resolved request: the
// half of Push after staging, which ShardedTail routes to a user's shard. It
// does not sweep: the clock belongs to whoever routes the records.
func (t *Tail) pushResolved(dst []session.Session, user string, page webgraph.PageID, at time.Time) []session.Session {
	atN := at.UnixNano()
	b := t.buffers[user]
	out := dst
	if b == nil {
		b = t.newBurst()
		t.buffers[user] = b
		t.stats.Users++
		t.wheelAdd(user, at)
	} else if len(b.entries) > 0 && atN-b.lastNano > t.rhoNano {
		// Gap close: the user stays buffered (their next burst starts with
		// this record), so no eviction and no wheel touch — the stale wheel
		// entry is revalidated lazily when its bucket ages out.
		out = t.closeInto(out, t.detach(user, b))
		b.entries = t.takeEntries(0)
	} else if atN < b.lastNano {
		b.unsorted = true
	}
	if len(b.entries) == cap(b.entries) {
		b.entries = t.growEntries(b.entries)
	}
	b.entries = append(b.entries, session.Entry{Page: page, Time: at})
	t.buffered++
	if n := int64(len(b.entries)); n > t.maxDepth {
		t.maxDepth = n
	}
	if atN > b.lastNano {
		b.last = at
		b.lastNano = atN
	}
	return out
}

// Buffered returns the number of entries currently held in open bursts —
// the streaming processor's in-memory backlog across all users.
func (t *Tail) Buffered() int { return t.buffered }

// ActiveUsers returns the number of users with an open burst — the working
// set that bounds the Tail's memory after eviction.
func (t *Tail) ActiveUsers() int { return len(t.buffers) }

// wheelBuckets returns the number of non-empty expiry-wheel buckets (test
// and debugging hook: the wheel's size tracks the active window, not the
// total users seen).
func (t *Tail) wheelBuckets() int { return len(t.wheel) }

// Expire finalizes every user whose last request is more than ρ before now,
// returning their sessions and evicting the users. Call it periodically when
// tailing a live log, whose clock can stand still while the wall clock does
// not, so quiet users' sessions are not held until the next record; its cost
// is proportional to the users whose activity buckets aged past the cutoff,
// independent of how many users the Tail has ever seen.
func (t *Tail) Expire(now time.Time) []session.Session {
	out := t.closeUsers(nil, t.agedUsers(now))
	t.syncMetrics()
	return out
}

// agedUsers takes every bucket at or before now-ρ off the expiry wheel and
// returns, in user order, the users in them whose last request is more than
// ρ before now; the others move forward to the bucket of their true last
// activity (the lazy half of the wheel's bookkeeping). The returned users
// are off the wheel: the caller closes them.
func (t *Tail) agedUsers(now time.Time) []string {
	if len(t.wheel) == 0 {
		return nil
	}
	cutBucket := bucketOf(now.Add(-t.rho), t.rho)
	var aged []int64
	for bk := range t.wheel {
		if bk <= cutBucket {
			aged = append(aged, bk)
		}
	}
	if len(aged) == 0 {
		return nil
	}
	slices.Sort(aged)
	var users []string
	for _, bk := range aged {
		bucket := t.wheel[bk]
		delete(t.wheel, bk)
		for _, u := range bucket {
			b := t.buffers[u]
			if b == nil || len(b.entries) == 0 {
				continue // evicted since insertion; stale entry, drop it
			}
			if now.Sub(b.last) > t.rho {
				users = append(users, u)
			} else {
				t.wheelAdd(u, b.last)
			}
		}
	}
	// Sorting keeps the emission order identical to the pre-wheel full scan.
	slices.Sort(users)
	return users
}

// Flush finalizes everything buffered, in user order, and evicts every user.
// The Tail remains usable afterwards (a returning user is counted anew).
// The whole result is materialized; at the end of a large input prefer
// Drain.
func (t *Tail) Flush() []session.Session {
	out := t.closeUsers(nil, t.openUsers())
	t.syncMetrics()
	return out
}

// openUsers returns every user with buffered entries, in user order, and
// empties the expiry wheel: the caller closes them all.
func (t *Tail) openUsers() []string {
	users := make([]string, 0, len(t.buffers))
	for u, b := range t.buffers {
		if len(b.entries) > 0 {
			users = append(users, u)
		}
	}
	slices.Sort(users)
	clear(t.wheel)
	return users
}

// Stats returns the counters accumulated so far. Sessions counts emitted
// sessions only; buffered requests are not yet sessions. Users counts user
// activations: a user evicted by the log's clock, Expire or Flush who later
// returns is counted again (see the Tail doc).
func (t *Tail) Stats() Stats { return t.stats }

// detach takes b's entries off as a stream for closeInto and leaves the
// burst empty: the caller evicts it or hands it a fresh slice.
func (t *Tail) detach(user string, b *burst) session.Stream {
	entries := b.entries
	b.entries = nil
	t.buffered -= len(entries)
	// Out-of-order arrivals within the burst (merged proxy logs, clock
	// skew) are sorted here; cross-burst reordering beyond ρ, and a record
	// more than ρ behind the log's newest, are log defects the caller owns:
	// such a record may find its user's burst closed and open a new one.
	// Logs are overwhelmingly in order, and pushResolved flags the rare
	// inversion as it arrives, so the common close pays neither a sort nor a
	// scan.
	if b.unsorted {
		sort.SliceStable(entries, func(i, j int) bool {
			return entries[i].Time.Before(entries[j].Time)
		})
		b.unsorted = false
	}
	return session.Stream{User: user, Entries: entries}
}

// closeUsers closes and evicts the picked users, in the order given,
// appending their sessions onto dst; the caller syncs metrics. A user already
// closed is skipped: the expiry wheel can hold a stale entry beside a fresh
// one for a user evicted and back, so agedUsers may pick them twice.
func (t *Tail) closeUsers(dst []session.Session, users []string) []session.Session {
	for _, u := range users {
		if b := t.buffers[u]; b != nil && len(b.entries) > 0 {
			st := t.detach(u, b)
			t.evict(u, b)
			dst = t.closeInto(dst, st)
		}
	}
	return dst
}

// closeInto reconstructs a detached stream onto dst, on the lent lane while
// lending and the kept one otherwise, counts its sessions and recycles its
// entry array: no heuristic retains its input (heuristics.Reconstructor).
func (t *Tail) closeInto(dst []session.Session, st session.Stream) []session.Session {
	l := t.kept
	if t.lending {
		l = t.lent
	}
	from := len(dst)
	dst = l.reconstruct(dst, st)
	t.stats.Sessions += len(dst) - from
	t.pendingSessions += int64(len(dst) - from)
	t.recycleEntries(st.Entries)
	return dst
}

// evict removes a closed user from the buffer map and recycles the burst
// header. The user's wheel entry (if any) is dropped lazily when its bucket
// ages out. The last user out takes the log's clock with them.
func (t *Tail) evict(user string, b *burst) {
	delete(t.buffers, user)
	if len(t.buffers) == 0 {
		t.clock = idleClock
	}
	if len(t.freeBursts) < maxFreeBursts {
		b.entries = nil
		b.last = time.Time{}
		b.lastNano = math.MinInt64
		b.unsorted = false
		t.freeBursts = append(t.freeBursts, b)
	}
}

// newBurst returns a zeroed burst header, recycled when possible, seeded
// with a recycled entry array.
func (t *Tail) newBurst() *burst {
	var b *burst
	if n := len(t.freeBursts); n > 0 {
		b = t.freeBursts[n-1]
		t.freeBursts[n-1] = nil
		t.freeBursts = t.freeBursts[:n-1]
	} else {
		b = &burst{}
	}
	b.entries = t.takeEntries(0)
	b.lastNano = math.MinInt64
	b.unsorted = false
	return b
}

// takeEntries pops a recycled entry array of class c (len 0), or allocates
// one. Class 0 is where every burst starts: a typical burst's size, so the
// common case pays no 1→2→4→8→16 growth ladder.
func (t *Tail) takeEntries(c int) []session.Entry {
	free := t.freeEntries[c]
	if n := len(free); n > 0 {
		s := free[n-1]
		free[n-1] = nil
		t.freeEntries[c] = free[:n-1]
		return s
	}
	return make([]session.Entry, 0, burstCap<<c)
}

// growEntries moves a full entry array's entries into an array of the next
// class and recycles the full one. An array of no class — restored from a
// snapshot, or past the largest class — is returned as it is, for append.
func (t *Tail) growEntries(s []session.Entry) []session.Entry {
	c := entryClass(cap(s))
	if c < 0 || c+1 == entryClasses {
		return s
	}
	grown := append(t.takeEntries(c+1), s...)
	t.recycleEntries(s)
	return grown
}

// recycleEntries returns an entry array to the free list of its class, if it
// has one. Safe because no Reconstructor retains the input entries (they
// copy what they keep), and Snapshot deep-copies — pinned by tests.
func (t *Tail) recycleEntries(s []session.Entry) {
	if c := entryClass(cap(s)); c >= 0 && len(t.freeEntries[c]) < maxFreeEntries>>c {
		t.freeEntries[c] = append(t.freeEntries[c], s[:0])
	}
}

// entryClass is the class of an entry array of capacity n, or -1.
func entryClass(n int) int {
	for c := range entryClasses {
		if burstCap<<c == n {
			return c
		}
	}
	return -1
}

// wheelAdd inserts user into the expiry-wheel bucket covering at.
func (t *Tail) wheelAdd(user string, at time.Time) {
	bk := bucketOf(at, t.rho)
	t.wheel[bk] = append(t.wheel[bk], user)
}

// bucketOf maps a timestamp to its ρ-width wheel bucket (floor division, so
// pre-epoch timestamps bucket consistently too).
func bucketOf(at time.Time, rho time.Duration) int64 {
	ns := at.UnixNano()
	w := int64(rho)
	bk := ns / w
	if ns < 0 && ns%w != 0 {
		bk--
	}
	return bk
}

// logClock is a log's own time: newest is the newest request among the open
// users (UnixNano), bucket the wheel bucket of newest − ρ, which the sweep
// last ran at. idleClock is the clock of a Tail with no open user.
type logClock struct{ newest, bucket int64 }

var idleClock = logClock{math.MinInt64, math.MinInt64}

// advance moves the clock forward to at, if at is newer. When at − ρ enters a
// new bucket it returns that cutoff with ok true: agedUsers(cut) are the
// users quiet for more than 2ρ of log time, for the caller to close.
func (c *logClock) advance(at time.Time, rho time.Duration) (cut time.Time, ok bool) {
	n := at.UnixNano()
	if n <= c.newest {
		return cut, false
	}
	c.newest = n
	cut = at.Add(-rho)
	if bk := bucketOf(cut, rho); bk > c.bucket {
		c.bucket = bk
		return cut, true
	}
	return cut, false
}

// syncMetrics folds the deferred per-operation deltas into the process-wide
// atomic metrics — one flush per public operation instead of 3–4 atomic ops
// per record.
func (t *Tail) syncMetrics() {
	if t.pendingRecords != 0 {
		metricTailRecords.Add(t.pendingRecords)
		t.pendingRecords = 0
	}
	if d := int64(t.buffered) - t.lastBuffered; d != 0 {
		metricTailBuffered.Add(d)
		t.lastBuffered = int64(t.buffered)
	}
	if t.maxDepth > t.syncedMaxDepth {
		metricTailMaxDepth.SetMax(t.maxDepth)
		t.syncedMaxDepth = t.maxDepth
	}
	if t.pendingSessions != 0 {
		metricTailSessions.Add(t.pendingSessions)
		t.pendingSessions = 0
	}
	t.kept.flush()
	t.lent.flush()
}

// entriesSorted reports whether the burst is already in time order (the
// overwhelmingly common case for real logs).
func entriesSorted(entries []session.Entry) bool {
	// UnixNano is order-preserving, and the integer compare keeps this
	// every-close pre-scan off the time.Time comparison slow path.
	prev := int64(math.MinInt64)
	for i := range entries {
		et := entries[i].Time.UnixNano()
		if et < prev {
			return false
		}
		prev = et
	}
	return true
}
