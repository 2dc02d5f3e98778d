package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// TestCutJournalRoundTrip pins the journal text format, including the
// crash-torn-final-line tolerance that recovery depends on.
func TestCutJournalRoundTrip(t *testing.T) {
	cuts := []ExpiryCut{
		{Seq: 1, Records: 0, At: time.Unix(1000, 5)},
		{Seq: 2, Records: 42, At: time.Unix(2000, 0)},
		{Seq: 3, Records: 42, At: time.Unix(3000, 999)},
	}
	var buf bytes.Buffer
	for _, c := range cuts {
		if err := AppendCut(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadCuts(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cuts) {
		t.Fatalf("read %d cuts, want %d", len(got), len(cuts))
	}
	for i := range cuts {
		if got[i].Seq != cuts[i].Seq || got[i].Records != cuts[i].Records || !got[i].At.Equal(cuts[i].At) {
			t.Fatalf("cut %d: got %+v, want %+v", i, got[i], cuts[i])
		}
	}

	// A torn final append (no newline) is ignored; the complete prefix holds.
	torn := buf.String() + "cut 4 99 12345"
	got, err = ReadCuts(strings.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cuts) {
		t.Fatalf("torn journal: read %d cuts, want %d", len(got), len(cuts))
	}

	// A malformed complete line is corruption, not tolerated.
	if _, err := ReadCuts(strings.NewReader("cut one 2 3\n")); err == nil {
		t.Fatal("malformed journal line accepted")
	}

	if after := CutsAfter(got, 1); len(after) != 2 || after[0].Seq != 2 || after[1].Seq != 3 {
		t.Fatalf("CutsAfter(1) = %+v, want seqs [2 3]", after)
	}
}

// TestReadCutsAcceptsOnlyAppendCutLines: a complete journal line is exactly
// what AppendCut writes — "cut" and three integers, one space apart, each as
// strconv.FormatInt prints it — or the journal is corrupt. A torn final line
// stays ignored whatever it holds.
func TestReadCutsAcceptsOnlyAppendCutLines(t *testing.T) {
	for _, line := range []string{
		"cut 1 0 0",
		"cut 7 42 -5",
		"cut 9223372036854775807 9223372036854775807 -9223372036854775808",
	} {
		cuts, err := ReadCuts(strings.NewReader(line + "\n" + "cut 01 torn"))
		if err != nil || len(cuts) != 1 {
			t.Errorf("%q: %d cuts, err %v; want it accepted", line, len(cuts), err)
		}
	}
	for _, line := range []string{
		"cut 1 2 3junk",
		"cut 1 2 3 4",
		"cut +1 2 3",
		"cut 01 2 3",
		"cut 1 02 3",
		"cut 1 2 -0",
		"cut 1 2 +3",
		"cut 1  2 3",
		"cut 1 2 3 ",
		" cut 1 2 3",
		"cut\t1 2 3",
		"cut 1 2 3\r",
		"Cut 1 2 3",
		"cut 1 2",
		"cut 1 2 9223372036854775808",
		"cut 0 2 3",
		"cut 1 -2 3",
		"",
	} {
		if cuts, err := ReadCuts(strings.NewReader("cut 1 0 0\n" + line + "\n")); err == nil {
			t.Errorf("%q accepted as %+v", line, cuts)
		}
	}
}

// FuzzReadCuts: whatever a cut journal holds, ReadCuts never panics; an
// accepted journal re-encodes through AppendCut to its bytes up to the last
// newline (a torn tail is ignored); and CutsAfter keeps exactly the later
// cuts, in Seq order. testdata/fuzz holds a journal a real serve
// -expire-every run wrote.
func FuzzReadCuts(f *testing.F) {
	f.Add([]byte("cut 1 0 1000000005\ncut 2 42 2000000000\ncut 3 42 3000000999\ncut 4 99 12"), int64(1))
	f.Add([]byte("cut 3 7 -1\ncut 1 9 0\n"), int64(2))
	f.Add([]byte("cut 1 2 3junk\n"), int64(0))
	f.Add([]byte{}, int64(0))
	f.Fuzz(func(t *testing.T, data []byte, after int64) {
		cuts, err := ReadCuts(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		for _, c := range cuts {
			if err := AppendCut(&again, c); err != nil {
				t.Fatal(err)
			}
		}
		if whole := data[:bytes.LastIndexByte(data, '\n')+1]; !bytes.Equal(again.Bytes(), whole) {
			t.Fatalf("accepted journal re-encodes differently:\nread  %q\nwrote %q", whole, again.Bytes())
		}
		later := 0
		for _, c := range cuts {
			if c.Seq > after {
				later++
			}
		}
		kept := CutsAfter(cuts, after)
		if len(kept) != later {
			t.Fatalf("CutsAfter(%d) kept %d cuts, want %d", after, len(kept), later)
		}
		for i, c := range kept {
			if c.Seq <= after || i > 0 && c.Seq < kept[i-1].Seq {
				t.Fatalf("CutsAfter(%d) = %+v: not the later cuts in Seq order", after, kept)
			}
		}
	})
}

// TestIngestFilesCutsEquivalence pins the cut-replay contract on the simgen
// corpus: a record-at-a-time Push loop with Expire(At) applied at the
// journaled record boundaries is the reference, and IngestFilesCuts must
// reproduce its emission stream byte for byte across the chunk-size sweep —
// including a restart mid-stream (snapshot, restore, resume with base =
// restored record count and the remaining cuts).
func TestIngestFilesCutsEquivalence(t *testing.T) {
	g := golden2Graph(t)
	log := readGolden(t, "golden2.log")
	records, bad, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("corpus malformed = %d, want 0", bad)
	}

	// Place cuts the way a live server would: mid-stream at uneven record
	// boundaries, with cutoffs far enough past the boundary record's time
	// that real bursts expire, plus one trailing cut past the final record
	// (a tick that fired after traffic stopped) and one no-op duplicate.
	n := int64(len(records))
	mkCut := func(seq, at int64, lead time.Duration) ExpiryCut {
		return ExpiryCut{Seq: seq, Records: at, At: records[at-1].Time.Add(lead)}
	}
	cuts := []ExpiryCut{
		mkCut(1, n/7, session.DefaultPageStay+time.Minute),
		mkCut(2, n/3, session.DefaultPageStay/2), // mostly a no-op: too early to close much
		mkCut(3, n/2, 2*session.DefaultPageStay),
		mkCut(4, n/2, 2*session.DefaultPageStay), // duplicate boundary+cutoff: strict no-op
		mkCut(5, 5*n/6, session.DefaultPageStay+time.Second),
		{Seq: 6, Records: n, At: records[n-1].Time.Add(3 * session.DefaultPageStay)},
	}

	// Reference: sequential Push loop with cuts applied in place.
	wantBytes, _ := pushLoop(t, Config{Graph: g}, records, cuts)

	logPath := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(logPath, log, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{0, 512, 8192} {
		st, err := NewTail(Config{Graph: g, StreamChunkBytes: chunk}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []session.Session
		malformed, err := st.IngestFilesCuts([]string{logPath}, clf.FilePos{}, 0, cuts, keep(&got), nil)
		if err != nil {
			t.Fatal(err)
		}
		if malformed != 0 {
			t.Fatalf("chunk=%d: malformed = %d, want 0", chunk, malformed)
		}
		got = append(got, st.Flush()...)
		if !bytes.Equal(renderSessions(t, got), wantBytes) {
			t.Fatalf("chunk=%d: cut-replayed sessions differ from sequential reference", chunk)
		}
	}

	// Crash-recovery shape: run the first part through a Tail fed directly,
	// snapshot, restore into a fresh Tail, and resume the file replay
	// from the matching byte offset with base = restored record count and
	// only the still-pending cuts. The concatenated emission must match.
	split := n * 2 / 5
	head, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []session.Session
	ci := 0
	for i := int64(0); i < split; i++ {
		for ci < len(cuts) && cuts[ci].Records <= i {
			got = append(got, head.Expire(cuts[ci].At)...)
			ci++
		}
		got = append(got, head.Push(records[i])...)
	}
	appliedSeq := int64(ci) // cuts are numbered 1..k in order here
	snap := head.Snapshot()

	var resumeOff int64
	for i, rest := int64(0), log; i < split; i++ {
		nl := bytes.IndexByte(rest, '\n')
		resumeOff += int64(nl) + 1
		rest = rest[nl+1:]
	}
	st, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Restore(snap); err != nil {
		t.Fatal(err)
	}
	base := int64(st.Stats().Records)
	if base != split {
		t.Fatalf("restored record count %d, want %d", base, split)
	}
	pending := CutsAfter(cuts, appliedSeq)
	if _, err := st.IngestFilesCuts([]string{logPath}, clf.FilePos{Offset: resumeOff}, base, pending, keep(&got), nil); err != nil {
		t.Fatal(err)
	}
	got = append(got, st.Flush()...)
	if !bytes.Equal(renderSessions(t, got), wantBytes) {
		t.Fatal("snapshot/restore resume with pending cuts differs from sequential reference")
	}
}
