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
	// Pre-shard stage counters are process-shared, so they are atomic.
	records    atomic.Int64
	filtered   atomic.Int64
	unresolved atomic.Int64
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
	var out []session.Session
	st.drainTo(closing{aged: true, now: now}, collectInto(&out), false)
	return out
}

// Flush finalizes everything buffered, in user order (identical to
// Tail.Flush). The ShardedTail remains usable afterwards.
func (st *ShardedTail) Flush() []session.Session {
	var out []session.Session
	st.drainTo(closing{}, collectInto(&out), false)
	return out
}

// Drain is Tail.Drain on the sharded processor: the streaming Flush, in
// bounded batches under SessionSink's ownership rule. sink runs on the
// calling goroutine with no shard lock held.
func (st *ShardedTail) Drain(sink SessionSink) {
	st.drainTo(closing{}, sink, true)
}

// drainTo is Tail.drainTo across shards. Each shard's users are picked, in
// user order, under that shard's lock; the lists are then merged —
// a user lives in exactly one shard, so taking the smallest head each time
// yields the global user order a single Tail would have closed in — and
// closed in batches of at most drainBatchUsers, each user under its shard's
// lock, each batch handed to sink with no lock held. Pushes on other
// goroutines interleave between those short critical sections instead of
// waiting out a whole shard's drain; closeUsers revalidates every user for
// that reason.
//
// The shards build on their kept scratches whatever lent says: several
// goroutines may be draining and pushing at once, so no arena here has a
// moment at which everything it handed out is known dead. lent still decides
// whether deliver treats the batch as lent.
func (st *ShardedTail) drainTo(c closing, sink SessionSink, lent bool) {
	lists := make([][]string, len(st.shards))
	for i, sh := range st.shards {
		sh.mu.Lock()
		lists[i] = sh.tail.pick(c)
		sh.mu.Unlock()
	}
	var buf []session.Session
	for {
		buf = buf[:0]
		n := 0
		for ; n < drainBatchUsers; n++ {
			si := -1
			for i, l := range lists {
				if len(l) > 0 && (si < 0 || l[0] < lists[si][0]) {
					si = i
				}
			}
			if si < 0 {
				break
			}
			sh := st.shards[si]
			sh.mu.Lock()
			buf = sh.tail.closeUsers(buf, lists[si][:1], c)
			sh.tail.syncMetrics()
			sh.mu.Unlock()
			lists[si] = lists[si][1:]
		}
		if n == 0 {
			return
		}
		deliver(sink, buf, lent)
	}
}

// Stats aggregates the counters across shards (plus the pre-shard stage
// counters). It is exact when no Push is concurrently in flight.
func (st *ShardedTail) Stats() Stats {
	stats := Stats{
		Records:    int(st.records.Load()),
		Filtered:   int(st.filtered.Load()),
		Unresolved: int(st.unresolved.Load()),
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
