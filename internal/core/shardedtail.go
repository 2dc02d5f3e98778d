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
// no lock, no atomic, no pool. A user lives in one shard, so its output is a
// single Tail's, byte for byte, for any shard count.
type ShardedTail struct {
	cfg    Config
	shards []*Tail
}

// NewShardedTail builds a ShardedTail from the same Config as NewTail plus
// the shard count (<= 0 means 1).
func NewShardedTail(cfg Config, rho time.Duration, shards int) (*ShardedTail, error) {
	st := &ShardedTail{shards: make([]*Tail, max(shards, 1))}
	for i := range st.shards {
		t, err := NewTail(cfg, rho)
		if err != nil {
			return nil, fmt.Errorf("core: sharded tail: %w", err)
		}
		st.shards[i] = t
	}
	st.cfg = st.shards[0].cfg // defaulted by NewTail
	return st, nil
}

// PushBatch is Tail.PushBatch: each record, in order, is staged once and
// buffered in its user's shard, so the sessions come back in the order a
// single Tail returns them.
func (st *ShardedTail) PushBatch(recs []clf.Record) []session.Session {
	metricTailRecords.Add(int64(len(recs)))
	var out []session.Session
	for i := range recs {
		user, page, res := st.cfg.stage(&recs[i])
		if res != staged {
			continue
		}
		out = st.shards[shardOf(user, len(st.shards))].pushResolved(out, user, page, recs[i].Time)
	}
	for _, t := range st.shards {
		t.syncMetrics()
	}
	return out
}

// Flush is Tail.Flush: every shard's open users, merged into user order (a
// user lives in one shard, so the smallest head each time is the order a
// single Tail closes in).
func (st *ShardedTail) Flush() []session.Session {
	lists := make([][]string, len(st.shards))
	for i, t := range st.shards {
		lists[i] = t.openUsers()
	}
	var out []session.Session
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
		out = st.shards[si].closeUser(out, lists[si][0])
		lists[si] = lists[si][1:]
	}
	for _, t := range st.shards {
		t.syncMetrics()
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
