package core

import (
	"fmt"
	"sort"
	"time"

	"smartsra/internal/session"
)

// TailSnapshot is a point-in-time copy of a streaming sessionizer's
// recoverable state: the accumulated stage counters and every user with an
// OPEN burst, with the entries buffered in it. It is the unit
// internal/checkpoint persists and what Restore rebuilds after a crash.
//
// Users whose bursts already closed are not serialized: eviction removes
// them from the live processor, so carrying them in checkpoints would grow
// the snapshot with users-ever-seen — exactly the unbounded state the
// expiry wheel removes. Stats.Users stays cumulative across the snapshot
// (see Tail's Users semantics); the expiry wheel itself needs no serialized
// form, because Restore rebuilds it from each user's Last timestamp.
//
// The format is deliberately shard-free: ShardedTail.Snapshot merges its
// shards into one user-sorted list and ShardedTail.Restore re-hashes users
// onto whatever shard count the restoring process runs with, so a snapshot
// taken with N shards restores into M shards (or a plain Tail) unchanged.
type TailSnapshot struct {
	// Stats are the counters accumulated up to the snapshot.
	Stats Stats
	// Users holds one state per user with an open burst, sorted by user key.
	// (Snapshots written before eviction existed may also carry entry-less
	// users; Restore skips those.)
	Users []UserState
}

// UserState is one user's open-burst state.
type UserState struct {
	// User is the identification key (typically the IP).
	User string
	// Last is the timestamp of the user's most recent request.
	Last time.Time
	// Entries are the requests buffered in the user's open burst, in arrival
	// order.
	Entries []session.Entry
}

// Snapshot deep-copies the Tail's recoverable state. Like every other Tail
// method it must not race with Push; callers streaming concurrently take
// their snapshot from the delivery goroutine (or under their own lock).
func (t *Tail) Snapshot() TailSnapshot {
	snap := TailSnapshot{
		Stats: t.stats,
		Users: make([]UserState, 0, len(t.buffers)),
	}
	for user, b := range t.buffers {
		if len(b.entries) == 0 {
			continue
		}
		snap.Users = append(snap.Users, UserState{
			User:    user,
			Last:    b.last,
			Entries: append([]session.Entry(nil), b.entries...),
		})
	}
	sort.Slice(snap.Users, func(i, j int) bool { return snap.Users[i].User < snap.Users[j].User })
	return snap
}

// Restore replaces the Tail's state with the snapshot's, discarding anything
// currently buffered, and rebuilds the expiry wheel from the restored users'
// last-activity times. It validates the snapshot (no duplicate users, stats
// consistent with the user list) so a logically corrupt snapshot is rejected
// instead of silently poisoning recovery.
func (t *Tail) Restore(snap TailSnapshot) error {
	if err := snap.validate(); err != nil {
		return err
	}
	buffers := make(map[string]*burst, len(snap.Users))
	wheel := make(map[int64][]string)
	buffered := 0
	for _, u := range snap.Users {
		if len(u.Entries) == 0 {
			continue // entry-less user from a pre-eviction snapshot
		}
		buffers[u.User] = &burst{
			entries:  append([]session.Entry(nil), u.Entries...),
			last:     u.Last,
			lastNano: u.Last.UnixNano(),
			unsorted: !entriesSorted(u.Entries),
		}
		buffered += len(u.Entries)
	}
	t.buffers = buffers
	t.buffered = buffered
	t.stats = snap.Stats
	t.wheel = wheel
	for user, b := range buffers {
		t.wheelAdd(user, b.last)
	}
	t.syncMetrics()
	return nil
}

// Snapshot merges every shard's state into one shard-free snapshot. It locks
// all shards for the duration, so the result is consistent even with
// concurrent Push calls: a snapshot observes each record entirely or not at
// all.
func (st *ShardedTail) Snapshot() TailSnapshot {
	for _, sh := range st.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range st.shards {
			sh.mu.Unlock()
		}
	}()
	snap := TailSnapshot{Stats: Stats{
		Records:    int(st.records.Load()),
		Filtered:   int(st.filtered.Load()),
		Unresolved: int(st.unresolved.Load()),
		Sessions:   int(st.sessions.Load()),
	}}
	for _, sh := range st.shards {
		s := sh.tail.Stats()
		snap.Stats.Users += s.Users
		snap.Stats.Sessions += s.Sessions
		for user, b := range sh.tail.buffers {
			if len(b.entries) == 0 {
				continue
			}
			snap.Users = append(snap.Users, UserState{
				User:    user,
				Last:    b.last,
				Entries: append([]session.Entry(nil), b.entries...),
			})
		}
	}
	sort.Slice(snap.Users, func(i, j int) bool { return snap.Users[i].User < snap.Users[j].User })
	return snap
}

// Restore replaces the ShardedTail's state with the snapshot's, re-hashing
// users onto this processor's shard count (which need not match the one the
// snapshot was taken with) and rebuilding each shard's expiry wheel. Not
// safe to run concurrently with Push.
func (st *ShardedTail) Restore(snap TailSnapshot) error {
	if err := snap.validate(); err != nil {
		return err
	}
	for _, sh := range st.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range st.shards {
			sh.mu.Unlock()
		}
	}()
	for _, sh := range st.shards {
		sh.tail.buffers = make(map[string]*burst)
		sh.tail.wheel = make(map[int64][]string)
		sh.tail.buffered = 0
		sh.tail.stats = Stats{}
	}
	for _, u := range snap.Users {
		if len(u.Entries) == 0 {
			continue // entry-less user from a pre-eviction snapshot
		}
		sh := st.shards[shardOf(u.User, len(st.shards))]
		sh.tail.buffers[u.User] = &burst{
			entries:  append([]session.Entry(nil), u.Entries...),
			last:     u.Last,
			lastNano: u.Last.UnixNano(),
			unsorted: !entriesSorted(u.Entries),
		}
		sh.tail.buffered += len(u.Entries)
		sh.tail.wheelAdd(u.User, u.Last)
	}
	// The aggregate user and session counts have no natural shard (users are
	// cumulative activations, not the open set); parking them on shard 0
	// keeps Stats() exact — per-shard splits are not exposed.
	st.shards[0].tail.stats.Sessions = snap.Stats.Sessions
	st.shards[0].tail.stats.Users = snap.Stats.Users
	st.records.Store(int64(snap.Stats.Records))
	st.filtered.Store(int64(snap.Stats.Filtered))
	st.unresolved.Store(int64(snap.Stats.Unresolved))
	st.sessions.Store(0)
	for _, sh := range st.shards {
		sh.tail.syncMetrics()
	}
	return nil
}

// validate rejects snapshots whose invariants do not hold — the last line of
// defense behind the checkpoint file's CRC. Stats.Users may exceed the user
// list (closed users are evicted but stay counted); it can never be smaller.
func (s TailSnapshot) validate() error {
	if s.Stats.Users < len(s.Users) {
		return fmt.Errorf("core: snapshot stats.Users=%d but %d user states", s.Stats.Users, len(s.Users))
	}
	for i := 1; i < len(s.Users); i++ {
		if s.Users[i].User == s.Users[i-1].User {
			return fmt.Errorf("core: snapshot has duplicate user %q", s.Users[i].User)
		}
		if s.Users[i].User < s.Users[i-1].User {
			return fmt.Errorf("core: snapshot users not sorted (%q after %q)", s.Users[i].User, s.Users[i-1].User)
		}
	}
	return nil
}

// Buffered returns the number of entries held across all user states — the
// size of the open-burst backlog the snapshot carries.
func (s TailSnapshot) Buffered() int {
	n := 0
	for i := range s.Users {
		n += len(s.Users[i].Entries)
	}
	return n
}
