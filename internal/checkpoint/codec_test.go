package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"smartsra/internal/core"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// bigCheckpoint is a live_serve-sized snapshot: users open bursts of entries
// requests each, at second precision in the local zone, as the CLF parser
// hands them to the tail.
func bigCheckpoint(users, entries int) *Checkpoint {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.Local)
	ck := &Checkpoint{LogOffset: 3 << 30, SinkOffset: 1 << 28, LogPath: "/var/log/access.log", CutSeq: 42}
	ck.Tail.Stats = core.Stats{Records: users * entries, Users: users, Sessions: users / 2}
	ck.Tail.Users = make([]core.UserState, users)
	for i := range ck.Tail.Users {
		es := make([]session.Entry, entries)
		for j := range es {
			es[j] = session.Entry{
				Page: webgraph.PageID((i*7 + j*13) % 300),
				Time: base.Add(time.Duration(i%600+j*20) * time.Second),
			}
		}
		ck.Tail.Users[i] = core.UserState{
			User:    fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&255, i&255),
			Last:    es[len(es)-1].Time,
			Entries: es,
		}
	}
	return ck
}

// TestTimeZoneFidelity: a time comes back Equal, with the same offset, and UTC
// exactly when it went in as UTC, whatever zone it carried — and its encoding
// is the same after the trip. The table runs again in a child process whose
// local zone is not UTC, where a fixed +05:30 must come back as time.Local.
func TestTimeZoneFidelity(t *testing.T) {
	cases := map[string]time.Time{
		"UTC":            time.Date(2024, 3, 1, 12, 0, 0, 123456789, time.UTC),
		"Local":          time.Date(2024, 3, 1, 12, 0, 0, 0, time.Local),
		"Local, summer":  time.Date(2024, 7, 1, 12, 0, 0, 0, time.Local),
		"-05:00":         time.Date(2024, 3, 1, 7, 0, 0, 0, time.FixedZone("EST", -5*3600)),
		"+05:30":         time.Date(2024, 3, 1, 17, 30, 0, 0, time.FixedZone("IST", 5*3600+1800)),
		"+00:00:30":      time.Date(2024, 3, 1, 12, 0, 30, 0, time.FixedZone("", 30)),
		"zero":           {},
		"pre-1970 UTC":   time.Date(1969, 7, 20, 20, 17, 40, 5, time.UTC),
		"pre-1970 fixed": time.Date(1901, 1, 1, 0, 0, 0, 999999999, time.FixedZone("", -3*3600)),
		"pre-1970 Local": time.Date(1950, 6, 1, 0, 0, 0, 0, time.Local),
		"year 9999":      time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", -5*3600)),
		"year 9999 UTC":  time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	}
	for name, want := range cases {
		enc := appendTime(nil, want)
		d := &decoder{b: enc}
		got := d.time()
		if d.err != nil || len(d.b) != 0 {
			t.Errorf("%s: decode: %v with %d bytes left", name, d.err, len(d.b))
			continue
		}
		_, wantOff := want.Zone()
		_, gotOff := got.Zone()
		if !got.Equal(want) || gotOff != wantOff || (got.Location() == time.UTC) != (want.Location() == time.UTC) {
			t.Errorf("%s: %v (offset %d, %v) came back as %v (offset %d, %v)",
				name, want, wantOff, want.Location(), got, gotOff, got.Location())
		}
		if again := appendTime(nil, got); !bytes.Equal(again, enc) {
			t.Errorf("%s: re-encoded to %x, first %x", name, again, enc)
		}
	}
	if _, off := time.Date(2024, 3, 1, 0, 0, 0, 0, time.Local).Zone(); off == 5*3600+1800 {
		d := &decoder{b: appendTime(nil, cases["+05:30"])}
		if got := d.time(); got.Location() != time.Local {
			t.Errorf("+05:30 under a +05:30 local zone came back in %v, want Local", got.Location())
		}
	}
	if os.Getenv("CHECKPOINT_TZ_CHILD") != "" {
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTimeZoneFidelity$")
	cmd.Env = append(os.Environ(), "CHECKPOINT_TZ_CHILD=1", "TZ=Asia/Kolkata")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("under TZ=Asia/Kolkata: %v\n%s", err, out)
	}
}

// TestWriterSaveSteadyStateAllocs: once its buffer has grown, a Writer's save
// of a live_serve-sized snapshot allocates only what creating, syncing and
// renaming a file costs.
func TestWriterSaveSteadyStateAllocs(t *testing.T) {
	ck := bigCheckpoint(11217, 9)
	w := NewWriter(OS, filepath.Join(t.TempDir(), "state.ckpt"), 0)
	if err := w.Save(ck); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := w.Save(ck); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("steady-state Writer.Save of %d users allocates %.0f times, want <= 16", len(ck.Tail.Users), allocs)
	}
}

func BenchmarkCheckpointSave(b *testing.B) {
	ck := bigCheckpoint(11217, 9)
	w := NewWriter(OS, filepath.Join(b.TempDir(), "state.ckpt"), 0)
	if err := w.Save(ck); err != nil { // grow the buffer: measure the steady state
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Save(ck); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(w.buf)), "file-bytes")
}

func BenchmarkCheckpointLoad(b *testing.B) {
	path := filepath.Join(b.TempDir(), "state.ckpt")
	if err := Save(OS, path, bigCheckpoint(11217, 9)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(OS, path); err != nil {
			b.Fatal(err)
		}
	}
}

// memFS serves one file's bytes to Load; Load calls nothing else.
type memFS struct {
	FS
	data []byte
}

func (m memFS) ReadFile(string) ([]byte, error) { return m.data, nil }

// FuzzCheckpointLoad: whatever a checkpoint file holds — arbitrary bytes, or
// (framed) an arbitrary payload under a valid header and CRC, which is what
// a buggy or older build would leave — Load returns ErrCorrupt or a
// checkpoint that encodes back to the very same bytes, and restoring its tail
// is accepted or refused without a panic; a tail that accepts it snapshots
// back to the same bytes too. testdata/fuzz holds a checkpoint a real serve
// wrote under load.
func FuzzCheckpointLoad(f *testing.F) {
	for _, ck := range []*Checkpoint{{}, {LogOffset: 4096, CutSeq: 3}, bigCheckpoint(3, 2)} {
		file := encode(nil, ck)
		f.Add(file, false)
		f.Add(bytes.Clone(file[headerSize:]), true)
	}
	for _, old := range []byte{1, 2} {
		file := encode(nil, &Checkpoint{})
		file[len(magic)] = old
		f.Add(file, false)
	}
	f.Add([]byte{}, true)

	g, _ := webgraph.PaperFigure1()
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		if framed {
			data = seal(append(make([]byte, headerSize), data...))
		}
		ck, err := Load(memFS{data: data}, "fuzz.ckpt")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load = %v, want ErrCorrupt", err)
			}
			return
		}
		if again := encode(nil, ck); !bytes.Equal(again, data) {
			t.Fatalf("accepted file re-encodes differently:\nread  %x\nwrote %x", data, again)
		}
		tail, err := core.NewTail(core.Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tail.Restore(ck.Tail) != nil {
			return // it may refuse the snapshot; it may not panic
		}
		// What the Tail accepted it gives back, time by time and zone by
		// zone, through the slots it holds them in: the same bytes, apart
		// from the entry-less users Restore skips.
		open := *ck
		open.Tail.Users = nil
		for _, u := range ck.Tail.Users {
			if len(u.Entries) > 0 {
				open.Tail.Users = append(open.Tail.Users, u)
			}
		}
		back := *ck
		back.Tail = tail.Snapshot()
		if got, want := encode(nil, &back), encode(nil, &open); !bytes.Equal(got, want) {
			t.Fatalf("restored tail snapshots differently:\nread  %x\nwrote %x", want, got)
		}
	})
}
