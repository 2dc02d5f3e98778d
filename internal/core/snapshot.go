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
// (see Tail's Users semantics); neither the expiry wheel nor the log's clock
// needs a serialized form, because Restore rebuilds both from each user's
// Last timestamp.
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
// method it runs on the owner goroutine; during ingestion, that is the
// progress callback's.
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
// last-activity times and the log's clock from the newest of them. It validates the snapshot (no duplicate users, stats
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
	t.clock = idleClock
	for user, b := range buffers {
		t.wheelAdd(user, b.last)
		t.clock.advance(b.last, t.rho)
	}
	t.syncMetrics()
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
