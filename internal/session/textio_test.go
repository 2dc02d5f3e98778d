package session

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"smartsra/internal/webgraph"
)

func TestParseLine(t *testing.T) {
	s, err := ParseLine("10.0.0.7:[3 14 15]")
	if err != nil {
		t.Fatal(err)
	}
	if s.User != "10.0.0.7" || s.Len() != 3 {
		t.Fatalf("parsed %v", s)
	}
	if got := s.Pages(); got[0] != 3 || got[1] != 14 || got[2] != 15 {
		t.Errorf("pages = %v", got)
	}
	for i := 1; i < len(s.Entries); i++ {
		if !s.Entries[i-1].Time.Before(s.Entries[i].Time) {
			t.Error("synthetic timestamps not strictly increasing")
		}
	}
}

func TestParseLineEdgeCases(t *testing.T) {
	empty, err := ParseLine("u:[]")
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty session: %v, %v", empty, err)
	}
	colons, err := ParseLine("host:8080|alice:[1 2]")
	if err != nil || colons.User != "host:8080|alice" {
		t.Errorf("colon user: %v, %v", colons, err)
	}
	bad := []string{
		"",
		"noBrackets",
		"[1 2]",          // no user
		"u[1 2]",         // missing colon
		"u:[1 2",         // unterminated
		"u:[1 x]",        // bad page
		"u:[-4]",         // negative page
		"u:[1 2] excess", // trailing junk
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestReadWriteAllRoundTrip(t *testing.T) {
	in := []Session{
		mk("alice", 1, 0, 2, 1, 3, 2),
		mk("bob", 7, 0),
		mk("carol"),
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d -> %d sessions", len(in), len(out))
	}
	for i := range in {
		if out[i].User != in[i].User || out[i].Len() != in[i].Len() {
			t.Errorf("session %d changed: %v vs %v", i, out[i], in[i])
		}
		for j, p := range in[i].Pages() {
			if out[i].Pages()[j] != p {
				t.Errorf("session %d page %d changed", i, j)
			}
		}
	}
}

func TestReadAllSkipsCommentsAndBlanks(t *testing.T) {
	input := "# ground truth\n\nu:[1 2]\n   \n# tail\nv:[3]\n"
	out, err := ReadAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].User != "u" || out[1].User != "v" {
		t.Errorf("parsed %v", out)
	}
}

func TestReadAllReportsLineNumbers(t *testing.T) {
	_, err := ReadAll(strings.NewReader("u:[1]\nbroken\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error = %v", err)
	}
}

// legacyString is Session.String as it was before AppendText — a
// strings.Builder with one fmt.Fprintf per page — kept as the reference the
// allocation-free encoder is held to.
func legacyString(s Session) string {
	var sb strings.Builder
	sb.WriteString(s.User)
	sb.WriteString(":[")
	for i, e := range s.Entries {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", e.Page)
	}
	sb.WriteByte(']')
	return sb.String()
}

// FuzzAppendText holds AppendText (and String and WriteAll, which are built
// on it) to the legacy rendering for arbitrary users — colons and brackets
// included — and page lists from empty to the PageID extremes, appended
// after arbitrary existing bytes; lines ParseLine can read must still
// round-trip.
func FuzzAppendText(f *testing.F) {
	f.Add("10.0.0.7", []byte{3, 14, 15}, "")
	f.Add("host:8080|alice", []byte{0}, "x\n")
	f.Add("a[b]:c", []byte{255, 254, 1}, "")
	f.Add("", []byte{}, "prefix")
	f.Fuzz(func(t *testing.T, user string, raw []byte, prefix string) {
		s := Session{User: user}
		for i, b := range raw {
			page := webgraph.PageID(b)
			switch b {
			case 255:
				page = math.MaxInt32
			case 254:
				page = math.MinInt32
			case 253:
				page = webgraph.PageID(i) * 1000003
			}
			s.Entries = append(s.Entries, Entry{Page: page})
		}
		want := legacyString(s)
		if got := string(s.AppendText([]byte(prefix))); got != prefix+want {
			t.Fatalf("AppendText(%q) = %q, want %q", prefix, got, prefix+want)
		}
		if got := s.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, []Session{s, s}); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want+"\n"+want+"\n" {
			t.Fatalf("WriteAll = %q, want two lines of %q", got, want)
		}
		if back, err := ParseLine(want); err == nil && back.User == strings.TrimSpace(user) {
			if got := back.String(); got != strings.TrimSpace(want) {
				t.Fatalf("ParseLine(%q) renders %q", want, got)
			}
		}
	})
}

// countingWriter records how many Write calls it saw.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteAllChunks pins the chunking: a batch several chunks long reaches
// the writer complete and in order, in about len/encodeChunk writes rather
// than one per session or one of unbounded size.
func TestWriteAllChunks(t *testing.T) {
	var in []Session
	var want strings.Builder
	for i := 0; want.Len() < 5*encodeChunk/2; i++ {
		s := mk(fmt.Sprintf("10.1.%d.%d", i>>8, i&255), i, 0, i+1, 1, i+2, 2)
		in = append(in, s)
		want.WriteString(legacyString(s))
		want.WriteByte('\n')
	}
	var w countingWriter
	if err := WriteAll(&w, in); err != nil {
		t.Fatal(err)
	}
	if w.String() != want.String() {
		t.Fatalf("WriteAll wrote %d bytes, want %d, or content differs", w.Len(), want.Len())
	}
	if w.writes != 3 {
		t.Errorf("%d bytes reached the writer in %d writes, want 3 (chunks of ~%d)", w.Len(), w.writes, encodeChunk)
	}
	var none countingWriter
	if err := WriteAll(&none, nil); err != nil || none.writes != 0 {
		t.Errorf("WriteAll(nil) = %v after %d writes, want nil after none", err, none.writes)
	}
}
