package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Tail is the module's one sessionizer: it consumes access-log records one
// at a time (from a log file, a pipe or a live log tail) and emits
// reconstructed sessions as soon as they can no longer change.
//
// Records are buffered per user into "activity bursts". A user's burst is
// closed — and handed to the heuristic — when a new record arrives more
// than the page-stay bound ρ after the burst's last request, when the log's
// own clock has run 2ρ past it, or when Expire/Flush/Drain decides the user
// has gone quiet. The heuristic therefore sees one burst at a time, not the
// user's whole history, and for three of the four heuristics the two can
// give different sessions. The time-total and navigation heuristics can join
// requests across a gap longer than ρ. Smart-SRA's maximality filter runs
// over every session of the stream it is handed, when a page repeats in that
// stream: handed a whole history, it drops a short visit whose pages all
// reappear in a longer session of another burst, which it keeps when handed
// the visit's burst alone (ROADMAP item 4: the golden corpus gives 7 sessions
// from whole histories and 8 from bursts). Only the time-gap heuristic, whose
// sessions never span a gap longer than ρ, gives the same sessions either way.
//
// With NoHorizon as its burst gap a Tail closes nothing before Flush or
// Drain: no gap ends a burst and it keeps no expiry wheel, so neither the
// log's clock nor Expire finds a user to close, and each user's burst is
// their whole history, in any order the log gives it; its memory is every
// request's slot. That is batch sessionization: Drain then closes every user
// in user order, each history stable-sorted by time, which is what grouping
// the log by user and reconstructing each group gives (prep.BuildStreams +
// heuristics.ReconstructAll, the tests' reference).
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
// An open burst holds each request as a 16-byte slot with no pointer in it —
// page, the kind of zone its time had, and the time as UnixNano — where a
// session.Entry is 32 bytes whose time.Time points at its Location, so the
// collector never scans a burst array. Entries are rebuilt from the slots
// only when a burst closes, into one scratch array the Tail reuses, and when
// it is snapshotted. A time keeps its instant and its zone through a slot —
// UTC, time.Local, or a fixed offset, which comes back as clf.FixedZone's
// Location — but not a monotonic clock reading, or the name of a zone that is
// neither UTC nor Local; and only instants UnixNano can hold, years 1678 to
// 2262, are kept.
//
// Tail is not safe for concurrent use: one goroutine owns it.
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
	// retire: burst headers, and slot arrays by capacity class (freeSlots[c]
	// holds arrays of burstCap<<c slots). All are bounded so a transient
	// spike does not pin memory forever.
	freeBursts []*burst
	freeSlots  [slotClasses][][]slot
	// scratch is where detach rebuilds a closing burst's entries for the
	// heuristic, which keeps none of them: one array for every close, as long
	// as the longest burst of the largest class.
	scratch []session.Entry

	// Deferred mirrors of the process-wide metrics: pushResolved and close
	// touch only these plain fields, and syncMetrics folds them into the
	// atomic registry once per public operation (per batch, not per record).
	pendingRecords  int64
	pendingSessions int64
	lastBuffered    int64
	maxDepth        int64
	syncedMaxDepth  int64
}

// Slot arrays come in capacity classes: class c holds burstCap<<c slots.
// A burst starts at class 0 and moves up one class each time it fills its
// array, handing the full one back, so it never holds more than twice its
// entries or burstCap; a closed burst's array goes back to its own class,
// never to a new burst, which would leave a long burst's capacity to a short
// one. The free lists keep at most maxFreeBursts headers and, in class c,
// maxFreeSlots>>c arrays: the same number of slots in every class.
const (
	maxFreeBursts = 512
	maxFreeSlots  = 512
	burstCap      = 16
	slotClasses   = 7 // up to 1024 slots; a longer burst grows by append
)

// burst is one user's open request run. lastNano is the newest of its
// slots' times, so the per-record gap check compares plain integers; it is
// math.MinInt64 while the burst has no activity. unsorted records that some
// slot arrived with a time below the burst's newest at append time — exactly
// when the slots are out of order — so close sorts only bursts that need it,
// without a scan.
type burst struct {
	slots    []slot
	lastNano int64
	unsorted bool
}

// slot is one buffered request (see the Tail doc): its page, the kind of
// zone its time had — zoneUTC, zoneLocal, or otherwise a fixed offset in
// seconds east of UTC — and its time as UnixNano.
type slot struct {
	page webgraph.PageID
	zone int32
	at   int64
}

// The zone kinds that are not an offset: no real zone is 68 years off UTC.
const (
	zoneUTC   = math.MinInt32
	zoneLocal = math.MinInt32 + 1
)

// slotOf packs one request into a slot.
func slotOf(page webgraph.PageID, at time.Time) slot {
	var zone int32 = zoneLocal
	switch at.Location() {
	case time.UTC:
		zone = zoneUTC
	case time.Local:
	default:
		_, off := at.Zone()
		zone = int32(off)
	}
	return slot{page: page, zone: zone, at: at.UnixNano()}
}

// fitsSlot reports whether at comes back from a slot as the same instant in
// a zone of the same offset: its instant is within UnixNano's range, and its
// offset, when its zone is neither UTC nor Local, is one a slot can name.
func fitsSlot(at time.Time) bool {
	s := slotOf(0, at)
	if !time.Unix(0, s.at).Equal(at) {
		return false
	}
	switch at.Location() {
	case time.UTC, time.Local:
		return true
	}
	_, off := at.Zone()
	return int(s.zone) == off && s.zone > zoneLocal
}

// appendEntries rebuilds slots as entries onto dst, each time in the zone it
// was pushed with: time.Unix gives time.Local, UTC is one call more, and a
// fixed offset takes clf.FixedZone's Location, looked up once per run of one
// offset.
func appendEntries(dst []session.Entry, slots []slot) []session.Entry {
	zone, loc := int32(zoneLocal), (*time.Location)(nil)
	for _, s := range slots {
		at := time.Unix(0, s.at)
		switch s.zone {
		case zoneLocal:
		case zoneUTC:
			at = at.UTC()
		default:
			if s.zone != zone {
				zone, loc = s.zone, clf.FixedZone(int(s.zone))
			}
			at = at.In(loc)
		}
		dst = append(dst, session.Entry{Page: s.page, Time: at})
	}
	return dst
}

// NoHorizon is the burst gap of a Tail that closes no burst before the end
// of its input: the batch sessionizer (see the Tail doc).
const NoHorizon time.Duration = math.MaxInt64

// NewTail builds a sessionizer for cfg with the burst gap ρ: zero means the
// paper's 10 minutes, NoHorizon no gap at all.
func NewTail(cfg Config, rho time.Duration) (*Tail, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: Config.Graph is required")
	}
	if cfg.Heuristic == nil {
		cfg.Heuristic = heuristics.NewSmartSRA(cfg.Graph)
	}
	if rho == 0 {
		rho = session.DefaultPageStay
	}
	if rho < 0 {
		return nil, fmt.Errorf("core: negative burst gap %v", rho)
	}
	return &Tail{
		cfg:     cfg,
		rho:     rho,
		rhoNano: rho.Nanoseconds(),
		buffers: make(map[string]*burst),
		wheel:   make(map[int64][]string),
		clock:   idleClock,
		kept:    newLane(cfg.Heuristic),
		lent:    newLane(cfg.Heuristic),
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

// AddMalformed counts n log lines a caller that parses for itself skipped,
// so Stats and Snapshot carry them as they carry the ones ingestion skips.
func (t *Tail) AddMalformed(n int) { t.stats.Malformed += n }

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
	s := slotOf(page, at)
	b := t.buffers[user]
	out := dst
	if b == nil {
		b = t.newBurst()
		t.buffers[user] = b
		t.stats.Users++
		t.wheelAdd(user, s.at)
	} else if len(b.slots) > 0 && s.at-b.lastNano > t.rhoNano {
		// Gap close: the user stays buffered (their next burst starts with
		// this record), so no eviction and no wheel touch — the stale wheel
		// entry is revalidated lazily when its bucket ages out.
		out = t.closeInto(out, t.detach(user, b))
		b.slots = t.takeSlots(0)
	} else if s.at < b.lastNano {
		b.unsorted = true
	}
	if len(b.slots) == cap(b.slots) {
		b.slots = t.growSlots(b.slots)
	}
	b.slots = append(b.slots, s)
	t.buffered++
	if n := int64(len(b.slots)); n > t.maxDepth {
		t.maxDepth = n
	}
	if s.at > b.lastNano {
		b.lastNano = s.at
	}
	return out
}

// Buffered returns the number of entries currently held in open bursts —
// the streaming processor's in-memory backlog across all users.
func (t *Tail) Buffered() int { return t.buffered }

// ActiveUsers returns the number of users with an open burst — the working
// set that bounds the Tail's memory after eviction.
func (t *Tail) ActiveUsers() int { return len(t.buffers) }

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
	cutBucket := bucketOf(now.Add(-t.rho).UnixNano(), t.rho)
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
			if b == nil || len(b.slots) == 0 {
				continue // evicted since insertion; stale entry, drop it
			}
			if now.Sub(time.Unix(0, b.lastNano)) > t.rho {
				users = append(users, u)
			} else {
				t.wheelAdd(u, b.lastNano)
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
		if len(b.slots) > 0 {
			users = append(users, u)
		}
	}
	slices.Sort(users)
	clear(t.wheel)
	return users
}

// Stats returns the counters accumulated so far, restored ones included.
// Malformed counts the lines ingestion and AddMalformed skipped. Sessions counts emitted
// sessions only; buffered requests are not yet sessions. Users counts user
// activations: a user evicted by the log's clock, Expire or Flush who later
// returns is counted again (see the Tail doc).
func (t *Tail) Stats() Stats { return t.stats }

// detach takes b's slots off, rebuilt as a stream in the Tail's scratch
// entries for closeInto, recycles them and leaves the burst empty: the caller
// evicts it or hands it a fresh slice.
func (t *Tail) detach(user string, b *burst) session.Stream {
	slots := b.slots
	b.slots = nil
	t.buffered -= len(slots)
	// Out-of-order arrivals within the burst (merged proxy logs, clock
	// skew) are sorted here; cross-burst reordering beyond ρ, and a record
	// more than ρ behind the log's newest, are log defects the caller owns:
	// such a record may find its user's burst closed and open a new one.
	// Logs are overwhelmingly in order, and pushResolved flags the rare
	// inversion as it arrives, so the common close pays neither a sort nor a
	// scan.
	if b.unsorted {
		slices.SortStableFunc(slots, func(x, y slot) int { return cmp.Compare(x.at, y.at) })
		b.unsorted = false
	}
	t.scratch = appendEntries(t.scratch[:0], slots)
	t.recycleSlots(slots)
	return session.Stream{User: user, Entries: t.scratch}
}

// closeUsers closes and evicts the picked users, in the order given,
// appending their sessions onto dst; the caller syncs metrics. A user already
// closed is skipped: the expiry wheel can hold a stale entry beside a fresh
// one for a user evicted and back, so agedUsers may pick them twice.
func (t *Tail) closeUsers(dst []session.Session, users []string) []session.Session {
	for _, u := range users {
		if b := t.buffers[u]; b != nil && len(b.slots) > 0 {
			st := t.detach(u, b)
			t.evict(u, b)
			dst = t.closeInto(dst, st)
		}
	}
	return dst
}

// closeInto reconstructs a detached stream onto dst, on the lent lane while
// lending and the kept one otherwise, and counts its sessions. Its entries
// are the scratch the next detach overwrites: a lane's sessions live in its
// own arena, never in the input (Reconstructor.Lend). A scratch grown past the
// largest slot class is let go, so one long burst does not pin its length.
func (t *Tail) closeInto(dst []session.Session, st session.Stream) []session.Session {
	l := t.kept
	if t.lending {
		l = t.lent
	}
	from := len(dst)
	dst = l.reconstruct(dst, st)
	t.stats.Sessions += len(dst) - from
	t.pendingSessions += int64(len(dst) - from)
	if cap(t.scratch) > burstCap<<(slotClasses-1) {
		t.scratch = nil
	}
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
		b.slots = nil
		b.lastNano = math.MinInt64
		b.unsorted = false
		t.freeBursts = append(t.freeBursts, b)
	}
}

// newBurst returns a zeroed burst header, recycled when possible, seeded
// with a recycled slot array.
func (t *Tail) newBurst() *burst {
	var b *burst
	if n := len(t.freeBursts); n > 0 {
		b = t.freeBursts[n-1]
		t.freeBursts[n-1] = nil
		t.freeBursts = t.freeBursts[:n-1]
	} else {
		b = &burst{}
	}
	b.slots = t.takeSlots(0)
	b.lastNano = math.MinInt64
	b.unsorted = false
	return b
}

// takeSlots pops a recycled slot array of class c (len 0), or allocates one.
// Class 0 is where every burst starts: a typical burst's size, so the common
// case pays no 1→2→4→8→16 growth ladder.
func (t *Tail) takeSlots(c int) []slot {
	free := t.freeSlots[c]
	if n := len(free); n > 0 {
		s := free[n-1]
		free[n-1] = nil
		t.freeSlots[c] = free[:n-1]
		return s
	}
	return make([]slot, 0, burstCap<<c)
}

// growSlots moves a full slot array's slots into an array of the next class
// and recycles the full one. An array of no class — restored from a
// snapshot, or past the largest class — is returned as it is, for append.
func (t *Tail) growSlots(s []slot) []slot {
	c := slotClass(cap(s))
	if c < 0 || c+1 == slotClasses {
		return s
	}
	grown := append(t.takeSlots(c+1), s...)
	t.recycleSlots(s)
	return grown
}

// recycleSlots returns a slot array to the free list of its class, if it has
// one. Safe because the slots are copied out — into the scratch a close
// rebuilds entries in, or a snapshot's own entries — before they are let go.
func (t *Tail) recycleSlots(s []slot) {
	if c := slotClass(cap(s)); c >= 0 && len(t.freeSlots[c]) < maxFreeSlots>>c {
		t.freeSlots[c] = append(t.freeSlots[c], s[:0])
	}
}

// slotClass is the class of a slot array of capacity n, or -1.
func slotClass(n int) int {
	for c := range slotClasses {
		if burstCap<<c == n {
			return c
		}
	}
	return -1
}

// wheelAdd inserts user into the expiry-wheel bucket covering at (UnixNano).
// A NoHorizon Tail keeps no wheel: none of its users ages out.
func (t *Tail) wheelAdd(user string, at int64) {
	if t.rho == NoHorizon {
		return
	}
	bk := bucketOf(at, t.rho)
	t.wheel[bk] = append(t.wheel[bk], user)
}

// bucketOf maps a UnixNano timestamp to its ρ-width wheel bucket (floor
// division, so pre-epoch timestamps bucket consistently too).
func bucketOf(ns int64, rho time.Duration) int64 {
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
	if bk := bucketOf(cut.UnixNano(), rho); bk > c.bucket {
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

// slotsSorted reports whether the slots are already in time order (the
// overwhelmingly common case for real logs).
func slotsSorted(slots []slot) bool {
	return slices.IsSortedFunc(slots, func(x, y slot) int { return cmp.Compare(x.at, y.at) })
}
