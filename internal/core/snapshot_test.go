package core

import (
	"bytes"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// feedTail pushes records one by one, collecting finalized sessions.
// Buffered returns the number of entries held across all user states — the
// size of the open-burst backlog the snapshot carries.
func (s TailSnapshot) Buffered() int {
	n := 0
	for i := range s.Users {
		n += len(s.Users[i].Entries)
	}
	return n
}

func feedTail(push func(clf.Record) []session.Session, records []clf.Record) []session.Session {
	var out []session.Session
	for _, rec := range records {
		out = append(out, push(rec)...)
	}
	return out
}

// TestTailSnapshotRestoreRoundTrip: cutting a stream at any point, moving the
// state through Snapshot/Restore into a fresh Tail, and continuing must
// produce exactly the sessions of the uninterrupted run.
func TestTailSnapshotRestoreRoundTrip(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()
	records, _, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}

	ref, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := feedTail(ref.Push, records)
	want = append(want, ref.Flush()...)
	wantStats := ref.Stats()

	for cut := 0; cut <= len(records); cut += 3 {
		first, err := NewTail(Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := feedTail(first.Push, records[:cut])
		snap := first.Snapshot()

		second, err := NewTail(Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := second.Restore(snap); err != nil {
			t.Fatalf("cut=%d: restore: %v", cut, err)
		}
		got = append(got, feedTail(second.Push, records[cut:])...)
		got = append(got, second.Flush()...)
		if !bytes.Equal(renderSessions(t, got), renderSessions(t, want)) {
			t.Fatalf("cut=%d: sessions diverge after snapshot/restore", cut)
		}
		if second.Stats() != wantStats {
			t.Fatalf("cut=%d: stats %+v, want %+v", cut, second.Stats(), wantStats)
		}
	}
}

// TestSnapshotIsDeepCopy: mutating the processor after Snapshot must not
// change the snapshot, and restoring must not alias the snapshot's slices.
func TestSnapshotIsDeepCopy(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()
	records, _, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	feedTail(tl.Push, records[:len(records)/2])
	snap := tl.Snapshot()
	before := snap.Buffered()
	feedTail(tl.Push, records[len(records)/2:])
	tl.Flush()
	if snap.Buffered() != before {
		t.Fatalf("snapshot mutated by later pushes: buffered %d, want %d", snap.Buffered(), before)
	}

	restored, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	restored.Flush()
	if snap.Buffered() != before {
		t.Fatalf("snapshot mutated by restored tail: buffered %d, want %d", snap.Buffered(), before)
	}
}

// TestRestoreRejectsInvalidSnapshots: logically corrupt snapshots (duplicate
// or unsorted users, stats inconsistent with the user list) are rejected.
func TestRestoreRejectsInvalidSnapshots(t *testing.T) {
	g := goldenGraph()
	cases := map[string]TailSnapshot{
		"dup users": {
			Stats: Stats{Users: 2},
			Users: []UserState{{User: "a"}, {User: "a"}},
		},
		"unsorted": {
			Stats: Stats{Users: 2},
			Users: []UserState{{User: "b"}, {User: "a"}},
		},
		// Users may exceed the open-burst list (closed users are evicted but
		// stay counted as activations); fewer than the list is impossible.
		"stats mismatch": {
			Stats: Stats{Users: 0},
			Users: []UserState{{User: "a"}},
		},
	}
	for name, snap := range cases {
		tl, err := NewTail(Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tl.Restore(snap); err == nil {
			t.Errorf("%s: Tail.Restore accepted invalid snapshot", name)
		}
	}
}

// TestRestoreChecksLast: a user's Last must be its newest entry's time, and
// every time one a Tail can hold. A stale Last would close the restored burst
// at the wrong record, and a time past 2262 would wrap to 1677 in the burst;
// both are refused as corrupt. The control snapshots — entries out of order,
// the newest twice, each zone kind — are accepted, and come back from
// Snapshot as they went in.
func TestRestoreChecksLast(t *testing.T) {
	g := goldenGraph()
	t0 := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	user := func(last time.Time, times ...time.Time) TailSnapshot {
		u := UserState{User: "10.0.0.1", Last: last}
		for i, at := range times {
			u.Entries = append(u.Entries, session.Entry{Page: webgraph.PageID(i), Time: at})
		}
		return TailSnapshot{Stats: Stats{Users: 1}, Users: []UserState{u}}
	}
	min1, min2 := t0.Add(time.Minute), t0.Add(2*time.Minute)
	far := time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	bad := map[string]TailSnapshot{
		"stale last":         user(min1, t0, min1, min2),
		"last past newest":   user(t0.Add(5*time.Minute), t0, min1, min2),
		"last in other zone": user(min2.In(time.FixedZone("", 3600)), t0, min1, min2),
		"after 2262":         user(far, t0, far),
		"before 1678":        user(min2, time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), min2),
		"offset of 2^40 s":   user(min2, t0.In(time.FixedZone("", 1<<40)), min2),
	}
	for name, snap := range bad {
		tl, err := NewTail(Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tl.Restore(snap); err == nil {
			t.Errorf("%s: Tail.Restore accepted %+v", name, snap.Users[0])
		}
	}
	good := map[string]TailSnapshot{
		"in order":     user(min2, t0, min1, min2),
		"out of order": user(min2, min1, min2, t0),
		"newest twice": user(min2, t0, min2, min1, min2.In(time.FixedZone("", -3600))),
		"zones":        user(min2.Local(), t0.In(time.FixedZone("", 19800)), min1, min2.Local()),
	}
	for name, snap := range good {
		tl, err := NewTail(Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tl.Restore(snap); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got := tl.Snapshot().Users[0]
		want := snap.Users[0]
		if !got.Last.Equal(want.Last) || got.Last.Location() != want.Last.Location() || len(got.Entries) != len(want.Entries) {
			t.Errorf("%s: came back as %+v, want %+v", name, got, want)
			continue
		}
		for i := range got.Entries {
			if e, w := got.Entries[i], want.Entries[i]; e.Page != w.Page || !e.Time.Equal(w.Time) || e.Time.String() != w.Time.String() {
				t.Errorf("%s: entry %d came back as %v, want %v", name, i, e, w)
			}
		}
	}
}

// TestIngestOffsetsConsistentSnapshots: at every progress boundary during
// Ingest, (snapshot, offset) must be a consistent resume point — restoring
// the snapshot into a fresh processor and replaying the log suffix from the
// offset reproduces the uninterrupted session stream.
func TestIngestOffsetsConsistentSnapshots(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()
	want := readGolden(t, "golden.stream.sessions")

	type point struct {
		off  int64
		snap TailSnapshot
		sunk []byte // sessions emitted up to this boundary
	}
	cfg := Config{Graph: g}
	src, err := NewTail(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []session.Session
	var points []point
	if _, err := src.Ingest(bytes.NewReader(log),
		keep(&emitted),
		func(pos clf.FilePos) error {
			points = append(points, point{pos.Offset, src.Snapshot(), renderSessions(t, emitted)})
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	emitted = append(emitted, src.Flush()...)
	if !bytes.Equal(renderSessions(t, emitted), want) {
		t.Fatal("uninterrupted Ingest with progress diverges from golden")
	}

	for i, p := range points {
		dst, err := NewTail(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(p.snap); err != nil {
			t.Fatal(err)
		}
		var tail []session.Session
		if _, err := dst.Ingest(bytes.NewReader(log[p.off:]),
			keep(&tail), nil); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, dst.Flush()...)
		got := append(append([]byte(nil), p.sunk...), renderSessions(t, tail)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("boundary %d (offset %d): resumed run diverges from golden", i, p.off)
		}
	}
}
