package core

import (
	"bytes"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// feedTail pushes records one by one, collecting finalized sessions.
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
