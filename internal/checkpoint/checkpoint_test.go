package checkpoint_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartsra/internal/checkpoint"
	"smartsra/internal/core"
	"smartsra/internal/faultio"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

func sampleCheckpoint() *checkpoint.Checkpoint {
	base := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	return &checkpoint.Checkpoint{
		LogOffset:  4096,
		SinkOffset: 512,
		Tail: core.TailSnapshot{
			Stats: core.Stats{Records: 40, Users: 2, Sessions: 3},
			Users: []core.UserState{
				{User: "10.0.0.1", Last: base, Entries: []session.Entry{
					{Page: webgraph.PageID(3), Time: base.Add(-time.Minute)},
					{Page: webgraph.PageID(14), Time: base},
				}},
				{User: "10.0.0.2", Last: base.Add(-time.Hour)}, // closed burst
			},
		},
		CutSeq: 7,
	}
}

func equalCheckpoints(a, b *checkpoint.Checkpoint) bool {
	if a.LogOffset != b.LogOffset || a.SinkOffset != b.SinkOffset ||
		a.Tail.Stats != b.Tail.Stats || len(a.Tail.Users) != len(b.Tail.Users) ||
		a.CutSeq != b.CutSeq {
		return false
	}
	for i := range a.Tail.Users {
		au, bu := a.Tail.Users[i], b.Tail.Users[i]
		if au.User != bu.User || !au.Last.Equal(bu.Last) || len(au.Entries) != len(bu.Entries) {
			return false
		}
		for j := range au.Entries {
			if au.Entries[j].Page != bu.Entries[j].Page || !au.Entries[j].Time.Equal(bu.Entries[j].Time) {
				return false
			}
		}
	}
	return true
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	want := sampleCheckpoint()
	if err := checkpoint.Save(checkpoint.OS, path, want); err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Load(checkpoint.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if !equalCheckpoints(got, want) {
		t.Fatalf("round trip changed checkpoint:\ngot  %+v\nwant %+v", got, want)
	}
	if ents, err := os.ReadDir(filepath.Dir(path)); err != nil || len(ents) != 1 {
		t.Fatalf("temp files left behind: %v (err %v)", ents, err)
	}
}

func TestLoadMissing(t *testing.T) {
	_, err := checkpoint.Load(checkpoint.OS, filepath.Join(t.TempDir(), "none.ckpt"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load on missing file: %v, want fs.ErrNotExist", err)
	}
	ck, reason, err := checkpoint.Resume(checkpoint.OS, filepath.Join(t.TempDir(), "none.ckpt"))
	if ck != nil || reason != "" || err != nil {
		t.Fatalf("Resume on missing file = (%v, %q, %v), want clean cold start", ck, reason, err)
	}
}

// TestLoadRejectsCorruption: every way a checkpoint file can be damaged —
// truncation at any prefix, a flipped bit anywhere, wrong magic, unknown
// version — must yield ErrCorrupt, never a silently wrong checkpoint.
func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := checkpoint.Save(checkpoint.OS, path, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte) {
		p := filepath.Join(dir, "bad.ckpt")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := checkpoint.Load(checkpoint.OS, p); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: Load = %v, want ErrCorrupt", name, err)
		}
		if ck, reason, err := checkpoint.Resume(checkpoint.OS, p); ck != nil || reason == "" || err != nil {
			t.Errorf("%s: Resume = (%v, %q, %v), want corrupt fallback", name, ck, reason, err)
		}
	}

	for cut := 0; cut < len(intact); cut += 7 {
		check("truncated", intact[:cut])
	}
	for i := 0; i < len(intact); i += 11 {
		flipped := append([]byte(nil), intact...)
		flipped[i] ^= 0x40
		check("bit flip", flipped)
	}
	check("empty", nil)
	check("garbage", []byte("not a checkpoint at all, but long enough to pass the size check"))
}

// TestLoadRejectsImpossibleState: a file can be intact — right header, right
// CRC, a payload that decodes — and still hold state no writer can have meant.
// Each case is written by Save, through the encoder, and must load as
// ErrCorrupt; the controls beside them must load.
func TestLoadRejectsImpossibleState(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*checkpoint.Checkpoint)
		ok   bool
	}{
		{"negative LogOffset", func(ck *checkpoint.Checkpoint) { ck.LogOffset = -1 }, false},
		{"negative SinkOffset", func(ck *checkpoint.Checkpoint) { ck.SinkOffset = -1 }, false},
		{"negative LogFile", func(ck *checkpoint.Checkpoint) { ck.LogFile = -1 }, false},
		{"negative CutSeq", func(ck *checkpoint.Checkpoint) { ck.CutSeq = -1 }, false},
		{"control: sample", func(*checkpoint.Checkpoint) {}, true},
		{"control: zero positions", func(ck *checkpoint.Checkpoint) {
			ck.LogOffset, ck.SinkOffset, ck.LogFile, ck.CutSeq = 0, 0, 0, 0
		}, true},
	}
	dir := t.TempDir()
	for _, c := range cases {
		ck := sampleCheckpoint()
		c.mut(ck)
		path := filepath.Join(dir, "state.ckpt")
		if err := checkpoint.Save(checkpoint.OS, path, ck); err != nil {
			t.Fatal(err)
		}
		got, err := checkpoint.Load(checkpoint.OS, path)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: Load = %v, want it accepted", c.name, err)
		case c.ok && !equalCheckpoints(got, ck):
			t.Errorf("%s: round trip changed the checkpoint", c.name)
		case !c.ok && !errors.Is(err, checkpoint.ErrCorrupt):
			t.Errorf("%s: Load = %v, want ErrCorrupt", c.name, err)
		}
	}
}

// TestLoadRejectsVersion1: a file a gob-writing build left (format version 1)
// is not read; it is ErrCorrupt with a reason that names the version, so
// recovery falls back to a full replay and says why.
func TestLoadRejectsVersion1(t *testing.T) {
	// A valid version-1 header whose CRC holds: the version alone refuses it.
	payload := []byte("a gob stream, intact under its CRC")
	file := append([]byte("SSRACKP\x01"), binary.LittleEndian.AppendUint64(nil, uint64(len(payload)))...)
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
	file = append(file, payload...)
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Load(checkpoint.OS, path); !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Load of a version-1 file = %v, want ErrCorrupt naming version 1", err)
	}
	ck, reason, err := checkpoint.Resume(checkpoint.OS, path)
	if ck != nil || err != nil || !strings.Contains(reason, "version 1") {
		t.Fatalf("Resume of a version-1 file = (%v, %q, %v), want a cold start naming version 1", ck, reason, err)
	}
}

// TestFailedSaveLeavesPreviousIntact: injected write/sync/rename faults make
// Save fail, but the previous checkpoint must stay loadable and no temp
// files may accumulate.
func TestFailedSaveLeavesPreviousIntact(t *testing.T) {
	schedules := map[string]*faultio.FS{
		"write fails":  {WriteFaults: faultio.FailAfter(1)},
		"short write":  {WriteFaults: faultio.FaultAt(faultio.Short, 1)},
		"sync fails":   {SyncFaults: faultio.FailAfter(1)},
		"rename fails": {RenameFaults: faultio.FailAfter(1)},
	}
	for name, fsys := range schedules {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.ckpt")
		first := sampleCheckpoint()
		if err := checkpoint.Save(fsys, path, first); err != nil {
			t.Fatalf("%s: initial save: %v", name, err)
		}
		second := sampleCheckpoint()
		second.LogOffset = 9999
		if err := checkpoint.Save(fsys, path, second); err == nil {
			t.Fatalf("%s: faulted save succeeded", name)
		} else if !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("%s: faulted save error = %v, want ErrInjected", name, err)
		}
		got, err := checkpoint.Load(checkpoint.OS, path)
		if err != nil {
			t.Fatalf("%s: previous checkpoint unreadable after failed save: %v", name, err)
		}
		if !equalCheckpoints(got, first) {
			t.Fatalf("%s: previous checkpoint changed by failed save", name)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 {
			t.Fatalf("%s: leftover files after failed save: %v (err %v)", name, ents, err)
		}
	}
}

// TestWriterRateLimit: MaybeSave honors the interval, only builds the
// snapshot when due, a failed build skips the save without waiting out the
// interval, and a failed save does not stop later saves.
func TestWriterRateLimit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	fsys := &faultio.FS{WriteFaults: faultio.FaultAt(faultio.Fail, 1)}
	w := checkpoint.NewWriter(fsys, path, time.Minute)
	clock := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	checkpoint.SetClock(w, func() time.Time { return clock })

	builds := 0
	build := func() (*checkpoint.Checkpoint, error) {
		builds++
		ck := sampleCheckpoint()
		ck.LogOffset = int64(builds)
		return ck, nil
	}
	unsynced := errors.New("session file sync failed")
	if saved, err := w.MaybeSave(func() (*checkpoint.Checkpoint, error) { return nil, unsynced }); saved || err != unsynced {
		t.Fatalf("MaybeSave with a failing build = (%v, %v), want no save and the build's error", saved, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a failed build left a checkpoint file (stat err %v)", err)
	}

	if saved, err := w.MaybeSave(build); !saved || err != nil {
		t.Fatalf("first MaybeSave = (%v, %v), want save", saved, err)
	}
	for i := 0; i < 5; i++ {
		clock = clock.Add(10 * time.Second)
		if saved, _ := w.MaybeSave(build); saved {
			t.Fatal("MaybeSave saved inside the interval")
		}
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want once (lazy when not due)", builds)
	}

	clock = clock.Add(time.Minute) // due again; this save hits the write fault
	if saved, err := w.MaybeSave(build); !saved || !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("faulted MaybeSave = (%v, %v), want attempted save with ErrInjected", saved, err)
	}
	clock = clock.Add(time.Minute)
	if saved, err := w.MaybeSave(build); !saved || err != nil {
		t.Fatalf("MaybeSave after failure = (%v, %v), want clean save", saved, err)
	}
	got, err := checkpoint.Load(checkpoint.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.LogOffset != 3 {
		t.Fatalf("final checkpoint LogOffset = %d, want 3 (last build)", got.LogOffset)
	}
}
