package core

import (
	"fmt"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// ShardedTail splits a Tail's users over N Tails by a hash of the user key.
// Nothing in the module feeds it: every sessionizer here is one Tail on one
// goroutine. It exists only because bench/layers.go times a two-shard
// PushBatch + Flush (core.sharded2_ns_per_rec), and it is exactly that much:
// no lock, no atomic, no pool. A user lives in one shard, and one log clock
// over every record routed sweeps the shards' aged users in merged user
// order, so its output is a single Tail's, byte for byte, for any shard
// count.
type ShardedTail struct {
	cfg    Config
	rho    time.Duration
	shards []*Tail
	clock  logClock
}

// NewShardedTail builds a ShardedTail from the same Config as NewTail plus
// the shard count (<= 0 means 1).
func NewShardedTail(cfg Config, rho time.Duration, shards int) (*ShardedTail, error) {
	st := &ShardedTail{shards: make([]*Tail, max(shards, 1)), clock: idleClock}
	for i := range st.shards {
		t, err := NewTail(cfg, rho)
		if err != nil {
			return nil, fmt.Errorf("core: sharded tail: %w", err)
		}
		st.shards[i] = t
	}
	st.cfg, st.rho = st.shards[0].cfg, st.shards[0].rho // defaulted by NewTail
	return st, nil
}

// PushBatch is Tail.PushBatch: each record, in order, is staged once,
// buffered in its user's shard and moves the one clock, so the sessions come
// back in the order a single Tail returns them.
func (st *ShardedTail) PushBatch(recs []clf.Record) []session.Session {
	metricTailRecords.Add(int64(len(recs)))
	var out []session.Session
	for i := range recs {
		user, page, res := st.cfg.stage(&recs[i])
		if res != staged {
			continue
		}
		out = st.shards[shardOf(user, len(st.shards))].pushResolved(out, user, page, recs[i].Time)
		if cut, ok := st.clock.advance(recs[i].Time, st.rho); ok {
			out = st.closeMerged(out, func(t *Tail) []string { return t.agedUsers(cut) })
		}
	}
	for _, t := range st.shards {
		t.syncMetrics()
	}
	return out
}

// Flush is Tail.Flush: every shard's open users, merged into user order.
func (st *ShardedTail) Flush() []session.Session {
	out := st.closeMerged(nil, (*Tail).openUsers)
	st.clock = idleClock
	for _, t := range st.shards {
		t.syncMetrics()
	}
	return out
}

// closeMerged closes the users pick returns from each shard, merged into user
// order (a user lives in one shard, so the smallest head each time is the
// order a single Tail closes in), appending their sessions onto out.
func (st *ShardedTail) closeMerged(out []session.Session, pick func(*Tail) []string) []session.Session {
	lists := make([][]string, len(st.shards))
	for i, t := range st.shards {
		lists[i] = pick(t)
	}
	for {
		si := -1
		for i, l := range lists {
			if len(l) > 0 && (si < 0 || l[0] < lists[si][0]) {
				si = i
			}
		}
		if si < 0 {
			break
		}
		out = st.shards[si].closeUsers(out, lists[si][:1])
		lists[si] = lists[si][1:]
	}
	return out
}

// shardOf maps a user key to a shard index via FNV-1a (inlined to avoid the
// hash.Hash32 allocation per record).
func shardOf(user string, shards int) int {
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
