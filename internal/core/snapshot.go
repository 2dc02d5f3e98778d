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
	// Last is the timestamp of the user's most recent request: the newest
	// of Entries' times, the first of them if several are equally new.
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
		if len(b.slots) == 0 {
			continue
		}
		entries := appendEntries(make([]session.Entry, 0, len(b.slots)), b.slots)
		snap.Users = append(snap.Users, UserState{
			User:    user,
			Last:    entries[newest(entries)].Time,
			Entries: entries,
		})
	}
	sort.Slice(snap.Users, func(i, j int) bool { return snap.Users[i].User < snap.Users[j].User })
	return snap
}

// Restore replaces the Tail's state with the snapshot's, discarding anything
// currently buffered, and rebuilds the expiry wheel from the restored users'
// last-activity times and the log's clock from the newest of them. It
// validates the snapshot (no duplicate users, stats consistent with the user
// list, each Last its user's newest entry time, every time one a Tail can
// hold) so a logically corrupt snapshot is rejected instead of silently
// poisoning recovery.
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
		slots := make([]slot, len(u.Entries))
		for i, e := range u.Entries {
			slots[i] = slotOf(e.Page, e.Time)
		}
		buffers[u.User] = &burst{
			slots:    slots,
			lastNano: u.Last.UnixNano(),
			unsorted: !slotsSorted(slots),
		}
		buffered += len(u.Entries)
	}
	t.buffers = buffers
	t.buffered = buffered
	t.stats = snap.Stats
	t.wheel = wheel
	t.clock = idleClock
	for user, b := range buffers {
		t.wheelAdd(user, b.lastNano)
		t.clock.advance(time.Unix(0, b.lastNano), t.rho)
	}
	t.syncMetrics()
	return nil
}

// validate rejects snapshots whose invariants do not hold — the last line of
// defense behind the checkpoint file's CRC. Stats.Users may exceed the user
// list (closed users are evicted but stay counted); it can never be smaller.
// A user's Last must be its newest entry's time, instant and zone: a stale
// one would split or expire the restored burst early. Every time must be
// one a Tail holds (see the Tail doc), or the restored burst would read a
// wrapped one.
func (s TailSnapshot) validate() error {
	if s.Stats.Users < len(s.Users) {
		return fmt.Errorf("core: snapshot stats.Users=%d but %d user states", s.Stats.Users, len(s.Users))
	}
	for i := range s.Users {
		u := &s.Users[i]
		if len(u.Entries) == 0 {
			continue // skipped by Restore
		}
		for _, e := range u.Entries {
			if !fitsSlot(e.Time) {
				return fmt.Errorf("core: snapshot user %q has an entry at %v, which a tail cannot hold", u.User, e.Time)
			}
		}
		if top := u.Entries[newest(u.Entries)].Time; !fitsSlot(u.Last) || slotOf(0, u.Last) != slotOf(0, top) {
			return fmt.Errorf("core: snapshot user %q has last %v, but its newest entry is at %v", u.User, u.Last, top)
		}
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

// newest is the index of the first of entries' newest times.
func newest(entries []session.Entry) int {
	n := 0
	for i := range entries {
		if entries[i].Time.After(entries[n].Time) {
			n = i
		}
	}
	return n
}
