package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// ShardedTail is a Tail that scales with cores: each user key hashes to one
// of N shards, and each shard owns its own buffer map, mutex, and Tail, so
// concurrent feeders only contend when they land on the same shard. The
// cleaning filter, URI resolution, and user keying run in the caller's
// goroutine before the shard lock is taken (every Config stage is a pure
// function, see Pipeline), keeping the critical section to the buffer
// append.
//
// Because a user lives in exactly one shard, per-user processing is
// identical to a single Tail's; Flush, Drain and Expire close users in
// global user order across the shards, so the emitted sessions are
// byte-identical to a single Tail fed the same records, for any shard count.
type ShardedTail struct {
	cfg    Config
	rho    time.Duration
	shards []*tailShard
	// Pre-shard stage counters are process-shared, so they are atomic; so is
	// sessions: what Drain reconstructed, outside every shard.
	records    atomic.Int64
	filtered   atomic.Int64
	unresolved atomic.Int64
	sessions   atomic.Int64
}

// tailShard pairs one Tail with the mutex that serializes access to it.
type tailShard struct {
	mu   sync.Mutex
	tail *Tail
}

// NewShardedTail builds a concurrent streaming processor from the same
// Config as NewTail plus the shard count (<= 0 means GOMAXPROCS, capped at
// a small multiple so tiny machines don't pay for empty maps).
func NewShardedTail(cfg Config, rho time.Duration, shards int) (*ShardedTail, error) {
	if shards <= 0 {
		shards = defaultShardCount()
	}
	st := &ShardedTail{shards: make([]*tailShard, shards)}
	for i := range st.shards {
		t, err := NewTail(cfg, rho)
		if err != nil {
			return nil, fmt.Errorf("core: sharded tail: %w", err)
		}
		st.shards[i] = &tailShard{tail: t}
	}
	st.cfg = st.shards[0].tail.cfg // defaulted by NewTail
	st.rho = st.shards[0].tail.rho
	return st, nil
}

// Shards returns the shard count.
func (st *ShardedTail) Shards() int { return len(st.shards) }

// Push feeds one record, returning any sessions finalized by its arrival.
// It is safe for concurrent use; sessions of one user are always returned
// to exactly one caller (the one whose record closed the burst). Bulk
// feeders should prefer PushBatch, which pays the lock and metrics costs
// once per batch.
func (st *ShardedTail) Push(rec clf.Record) []session.Session {
	st.records.Add(1)
	metricTailRecords.Inc()
	user, page, res := st.cfg.stage(&rec)
	switch res {
	case stageFiltered:
		st.filtered.Add(1)
		return nil
	case stageUnresolved:
		st.unresolved.Add(1)
		return nil
	}
	sh := st.shards[shardOf(user, len(st.shards))]
	sh.mu.Lock()
	out := sh.tail.pushResolved(nil, user, page, rec.Time)
	sh.tail.syncMetrics()
	sh.mu.Unlock()
	return out
}

// Buffered returns the number of entries currently held in open bursts
// across all shards. It reads each shard's atomic mirror instead of taking
// its lock, so an observability scrape (/debug/metrics) never contends with
// ingestion; the sum is exact whenever no push is mid-flight.
func (st *ShardedTail) Buffered() int {
	var n int64
	for _, sh := range st.shards {
		n += sh.tail.bufferedGauge.Load()
	}
	return int(n)
}

// Expire finalizes every user whose last request is more than ρ before now,
// in global user order (identical to Tail.Expire).
func (st *ShardedTail) Expire(now time.Time) []session.Session {
	return st.closeAll(closing{aged: true, now: now})
}

// Flush finalizes everything buffered, in user order (identical to
// Tail.Flush). The ShardedTail remains usable afterwards.
func (st *ShardedTail) Flush() []session.Session {
	return st.closeAll(closing{})
}

// Drain is Tail.Drain on the sharded processor: the streaming Flush, in
// bounded batches under SessionSink's ownership rule. sink runs on the
// calling goroutine with no shard lock held; each user is detached under its
// shard's lock and reconstructed outside every lock on the drain's own lanes
// (drainLent). Pushes and drains on other goroutines interleave between
// those short critical sections, and detachUser revalidates every user, so
// a burst's sessions go to exactly one caller.
func (st *ShardedTail) Drain(sink SessionSink) {
	start := time.Now()
	users, next := st.pickMerged(closing{})
	drainLent(start, users, st.cfg.Heuristic, sink, func(dst []session.Stream) ([]session.Stream, bool) {
		n := 0
		for ; n < drainBatchUsers; n++ {
			sh, user := next()
			if sh == nil {
				break
			}
			sh.mu.Lock()
			if s, ok := sh.tail.detachUser(user, closing{}); ok {
				dst = append(dst, s)
			}
			sh.tail.syncMetrics()
			sh.mu.Unlock()
		}
		return dst, n > 0
	}, func(sessions int, _ ...session.Stream) {
		st.sessions.Add(int64(sessions))
		metricTailSessions.Add(int64(sessions))
	})
}

// pickMerged picks c's users on every shard, in user order under the shard's
// lock, and returns their number and next, which yields them merged, each
// with its shard (nil at the end): a user lives in exactly one shard, so the
// smallest head each time is the order a single Tail closes in.
func (st *ShardedTail) pickMerged(c closing) (users int, next func() (*tailShard, string)) {
	lists := make([][]string, len(st.shards))
	for i, sh := range st.shards {
		sh.mu.Lock()
		lists[i] = sh.tail.pick(c)
		sh.mu.Unlock()
		users += len(lists[i])
	}
	return users, func() (*tailShard, string) {
		si := -1
		for i, l := range lists {
			if len(l) > 0 && (si < 0 || l[0] < lists[si][0]) {
				si = i
			}
		}
		if si < 0 {
			return nil, ""
		}
		user := lists[si][0]
		lists[si] = lists[si][1:]
		return st.shards[si], user
	}
}

// closeAll is Tail.closeAll across shards, for Flush and Expire: the picked
// users are closed in merged order, each under its shard's lock and on that
// shard's kept scratch.
func (st *ShardedTail) closeAll(c closing) []session.Session {
	var out []session.Session
	_, next := st.pickMerged(c)
	for sh, user := next(); sh != nil; sh, user = next() {
		sh.mu.Lock()
		out = sh.tail.closeUser(out, user, c)
		sh.tail.syncMetrics()
		sh.mu.Unlock()
	}
	return out
}

// Stats aggregates the counters across shards (plus the pre-shard stage
// counters). It is exact when no Push is concurrently in flight.
func (st *ShardedTail) Stats() Stats {
	stats := Stats{
		Records:    int(st.records.Load()),
		Filtered:   int(st.filtered.Load()),
		Unresolved: int(st.unresolved.Load()),
		Sessions:   int(st.sessions.Load()),
	}
	for _, sh := range st.shards {
		sh.mu.Lock()
		s := sh.tail.Stats()
		sh.mu.Unlock()
		stats.Users += s.Users
		stats.Sessions += s.Sessions
	}
	return stats
}

// defaultShardCount sizes the shard set to the scheduler's parallelism.
func defaultShardCount() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// shardOf maps a user key to a shard index via FNV-1a (inlined to avoid the
// hash.Hash32 allocation per record).
func shardOf(user string, shards int) int {
	if shards == 1 {
		// Single-shard mode (the planner's sequential fallback): nothing to
		// route, skip the hash.
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(user); i++ {
		h ^= uint32(user[i])
		h *= prime32
	}
	return int(h % uint32(shards))
}
