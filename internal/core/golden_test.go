package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// The end-to-end golden corpus: a committed CLF fixture mixing clean,
// malformed, out-of-order, CRLF-terminated, combined-format, filtered, and
// unresolved lines, pinned to checked-in session output. Batch (a NoHorizon
// Tail, as sessionize runs it) and streaming (a Tail with the paper's ρ, as
// sessionize -stream and serve run it) must each reproduce their golden file
// byte for byte across the whole {source, chunk size, batch size} sweep, and
// every variant must count the same malformed lines. Regenerate with
//
//	go test ./internal/core -run TestGoldenCorpus -update
var update = flag.Bool("update", false, "rewrite the golden corpus outputs")

// goldenMalformed is the number of intentionally broken lines in
// testdata/golden.log: free-text garbage, a truncated date, a bad month, a
// status below 100, and an unclosed request quote.
const goldenMalformed = 5

func goldenPath(name string) string { return filepath.Join("testdata", name) }

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("read golden %s: %v (run with -update to create)", name, err)
	}
	return b
}

func writeOrCompareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath(name), got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, name)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func renderSessions(t *testing.T, sessions []session.Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := session.WriteAll(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func goldenGraph() *webgraph.Graph {
	g, _ := webgraph.PaperFigure1()
	return g
}

// TestGoldenCorpusBatch pins the batch path, a NoHorizon Tail read by
// Ingest and drained, to the committed session file and stats line, and
// holds batchReference, which shares no code with the Tail, to the same two
// files.
func TestGoldenCorpusBatch(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()

	sessions, st := batchIngest(t, Config{Graph: g}, string(log))
	writeOrCompareGolden(t, "golden.batch.sessions", renderSessions(t, sessions))
	writeOrCompareGolden(t, "golden.stats", []byte(st.String()+"\n"))
	if st.Malformed != goldenMalformed {
		t.Fatalf("batch malformed = %d, want %d", st.Malformed, goldenMalformed)
	}

	records, bad, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	ref, refStats := batchReference(t, g, nil, records)
	refStats.Malformed = bad
	if !bytes.Equal(renderSessions(t, ref), readGolden(t, "golden.batch.sessions")) {
		t.Errorf("the reference's sessions differ from golden.batch.sessions:\n%s", renderSessions(t, ref))
	}
	if got := refStats.String() + "\n"; got != string(readGolden(t, "golden.stats")) {
		t.Errorf("the reference's stats %q differ from golden.stats", got)
	}
}

// readGoldenOrGot returns the golden bytes, or (under -update, when the file
// was just rewritten) the freshly produced bytes.
func readGoldenOrGot(t *testing.T, name string, got []byte) []byte {
	if *update {
		return got
	}
	return readGolden(t, name)
}

// TestGoldenCorpusStream pins the serve-style streaming path: every record
// source (ReadAll; StreamChunked collected into a slice, and pushed chunk by
// chunk, at the default and at a small chunk size;
// Tail.Ingest) feeding a Tail emits byte-identical sessions — the
// finalized-during-feed prefix and the Flush tail concatenated — and the
// same malformed count.
func TestGoldenCorpusStream(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()

	// Reference: single Tail fed from the sequential reader.
	refRecords, refBad, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if refBad != goldenMalformed {
		t.Fatalf("ReadAll malformed = %d, want %d", refBad, goldenMalformed)
	}
	refTail, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var refSessions []session.Session
	for _, rec := range refRecords {
		refSessions = append(refSessions, refTail.Push(rec)...)
	}
	refSessions = append(refSessions, refTail.Flush()...)
	writeOrCompareGolden(t, "golden.stream.sessions", renderSessions(t, refSessions))
	want := readGoldenOrGot(t, "golden.stream.sessions", renderSessions(t, refSessions))

	type source struct {
		name string
		feed func(t *testing.T, push func(clf.Record) []session.Session, collect *[]session.Session) int
	}
	feedAll := func(records []clf.Record, bad int) func(*testing.T, func(clf.Record) []session.Session, *[]session.Session) int {
		return func(t *testing.T, push func(clf.Record) []session.Session, collect *[]session.Session) int {
			for _, rec := range records {
				*collect = append(*collect, push(rec)...)
			}
			return bad
		}
	}
	// streamed pushes every record StreamChunked emits under cfg.
	streamed := func(cfg clf.StreamConfig) func(*testing.T, func(clf.Record) []session.Session, *[]session.Session) int {
		return func(t *testing.T, push func(clf.Record) []session.Session, collect *[]session.Session) int {
			bad, err := clf.StreamChunked(bytes.NewReader(log), cfg, func(recs []clf.Record) {
				for _, rec := range recs {
					*collect = append(*collect, push(rec)...)
				}
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return bad
		}
	}
	var parRecords []clf.Record
	parBad, err := clf.StreamChunked(bytes.NewReader(log), clf.StreamConfig{},
		func(recs []clf.Record) { parRecords = append(parRecords, recs...) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	sources := []source{
		{"readall", feedAll(refRecords, refBad)},
		{"collected", feedAll(parRecords, parBad)},
		{"streamchunked", streamed(clf.StreamConfig{})},
		{"streamchunked/4KiB", streamed(clf.StreamConfig{ChunkBytes: 4096})},
	}
	for _, src := range sources {
		tl, err := NewTail(Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []session.Session
		bad := src.feed(t, tl.Push, &got)
		got = append(got, tl.Flush()...)
		if bad != goldenMalformed {
			t.Fatalf("%s: malformed %d, want %d", src.name, bad, goldenMalformed)
		}
		if !bytes.Equal(renderSessions(t, got), want) {
			t.Fatalf("%s: sessions differ from golden:\n%s", src.name, renderSessions(t, got))
		}
	}

	// The Ingest entry point (the serve -backfill / sessionize -stream path)
	// must land on the same golden bytes.
	tl, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []session.Session
	collect := keep(&got)
	bad, err := tl.Ingest(bytes.NewReader(log), collect, nil)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, tl.Flush()...)
	if bad != goldenMalformed || !bytes.Equal(renderSessions(t, got), want) {
		t.Fatalf("tail.Ingest: output differs from golden (malformed=%d)", bad)
	}
}
