package core

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

func testBatch(user string, pages ...int) []session.Session {
	s := session.Session{User: user}
	base := time.Unix(1000, 0).UTC()
	for i, p := range pages {
		s.Entries = append(s.Entries, session.Entry{Page: webgraph.PageID(p), Time: base.Add(time.Duration(i) * time.Second)})
	}
	return []session.Session{s}
}

// TestRetrySinkRecoversFromTransientFailures: a write that fails twice then
// succeeds loses nothing, records the retries and the recovery, and backs off
// exponentially between attempts.
func TestRetrySinkRecoversFromTransientFailures(t *testing.T) {
	retriesBefore := metricRetrySinkRetries.Value()
	recoveriesBefore := metricRetrySinkRecoveries.Value()

	var buf bytes.Buffer
	fails := 2
	var delays []time.Duration
	sink := NewRetrySink(func(s []session.Session) error {
		if fails > 0 {
			fails--
			return errors.New("transient")
		}
		return session.WriteAll(&buf, s)
	}, RetryOptions{
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  time.Second,
		Sleep:     func(d time.Duration) { delays = append(delays, d) },
	})

	batch := testBatch("10.0.0.1", 3, 14, 15)
	sink.Emit(batch)
	if err := sink.Err(); err != nil {
		t.Fatalf("Err() = %v after recovery, want nil", err)
	}
	var want bytes.Buffer
	session.WriteAll(&want, batch)
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("sink wrote %q, want %q", buf.Bytes(), want.Bytes())
	}
	if len(delays) != 2 || delays[0] != 10*time.Millisecond || delays[1] != 20*time.Millisecond {
		t.Fatalf("backoff delays = %v, want [10ms 20ms]", delays)
	}
	if got := metricRetrySinkRetries.Value() - retriesBefore; got != 2 {
		t.Errorf("retry counter moved by %d, want 2", got)
	}
	if got := metricRetrySinkRecoveries.Value() - recoveriesBefore; got != 1 {
		t.Errorf("recovery counter moved by %d, want 1", got)
	}
}

// TestRetrySinkDeadLetters: a persistently failing write journals the batch
// in the re-ingestable session text format and surfaces the error via Err.
func TestRetrySinkDeadLetters(t *testing.T) {
	deadBefore := metricRetrySinkDeadLetters.Value()

	var journal bytes.Buffer
	sink := NewRetrySink(func([]session.Session) error {
		return errors.New("disk full")
	}, RetryOptions{
		MaxAttempts: 3,
		Sleep:       func(time.Duration) {},
		DeadLetter:  &journal,
	})

	batch := testBatch("10.0.0.2", 1, 2)
	sink.Emit(batch)
	if err := sink.Err(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Err() = %v, want disk full", err)
	}
	got, err := session.ReadAll(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatalf("dead-letter journal does not re-ingest: %v", err)
	}
	if len(got) != 1 || got[0].String() != batch[0].String() {
		t.Fatalf("journal holds %v, want %v", got, batch)
	}
	if gotN := metricRetrySinkDeadLetters.Value() - deadBefore; gotN != 1 {
		t.Errorf("deadletter counter moved by %d, want 1", gotN)
	}
}

// TestRetrySinkDropsAreCounted: with no journal (or a failing one), exhausted
// batches are dropped but the loss is visible in the dropped counter.
func TestRetrySinkDropsAreCounted(t *testing.T) {
	droppedBefore := metricRetrySinkDropped.Value()
	sink := NewRetrySink(func([]session.Session) error {
		return errors.New("nope")
	}, RetryOptions{MaxAttempts: 2, Sleep: func(time.Duration) {}})
	sink.Emit(testBatch("10.0.0.3", 7))
	sink.Emit(testBatch("10.0.0.4", 8, 9))
	if got := metricRetrySinkDropped.Value() - droppedBefore; got != 2 {
		t.Errorf("dropped counter moved by %d, want 2", got)
	}

	failingJournal := NewRetrySink(func([]session.Session) error {
		return errors.New("nope")
	}, RetryOptions{
		MaxAttempts: 1,
		Sleep:       func(time.Duration) {},
		DeadLetter:  failWriter{},
	})
	droppedBefore = metricRetrySinkDropped.Value()
	failingJournal.Emit(testBatch("10.0.0.5", 1))
	if got := metricRetrySinkDropped.Value() - droppedBefore; got != 1 {
		t.Errorf("dropped counter (failing journal) moved by %d, want 1", got)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("journal broken") }

// journalTemp opens an O_RDWR temp file as a compactable dead-letter journal.
func journalTemp(t *testing.T) *os.File {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "deadletter-*.sessions")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func journalSize(t *testing.T, f *os.File) int64 {
	t.Helper()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestRetrySinkCompactsJournalOnRecovery: the headline journal-GC fix — an
// outage dead-letters batches into the file journal, and the first Emit
// after the sink recovers re-ingests them through the working sink and
// truncates the journal back to empty, so the dead-letter file tracks the
// current outage instead of growing forever.
func TestRetrySinkCompactsJournalOnRecovery(t *testing.T) {
	reingestBefore := metricRetrySinkReingested.Value()
	compactBefore := metricRetrySinkCompactions.Value()

	journal := journalTemp(t)
	var buf bytes.Buffer
	failing := true
	sink := NewRetrySink(func(s []session.Session) error {
		if failing {
			return errors.New("outage")
		}
		return session.WriteAll(&buf, s)
	}, RetryOptions{
		MaxAttempts: 2,
		Sleep:       func(time.Duration) {},
		DeadLetter:  journal,
	})

	lost1 := testBatch("10.2.0.1", 1, 2)
	lost2 := testBatch("10.2.0.2", 3)
	sink.Emit(lost1)
	sink.Emit(lost2)
	if journalSize(t, journal) == 0 {
		t.Fatal("outage batches were not journaled")
	}

	failing = false
	live := testBatch("10.2.0.3", 4, 5)
	sink.Emit(live)

	if size := journalSize(t, journal); size != 0 {
		t.Fatalf("journal still %d bytes after recovery, want empty", size)
	}
	got, err := session.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("recovered sink output does not re-ingest: %v", err)
	}
	// live lands first (its Emit triggered the compaction), then the backlog.
	if len(got) != 3 {
		t.Fatalf("%d sessions reached the sink, want 3 (live + 2 re-ingested)", len(got))
	}
	want := map[string]bool{
		lost1[0].String(): false, lost2[0].String(): false, live[0].String(): false,
	}
	for _, s := range got {
		if _, ok := want[s.String()]; !ok {
			t.Fatalf("unexpected session %v", s)
		}
		want[s.String()] = true
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("session %q never reached the recovered sink", k)
		}
	}
	if got := metricRetrySinkReingested.Value() - reingestBefore; got != 2 {
		t.Errorf("reingest counter moved by %d, want 2", got)
	}
	if got := metricRetrySinkCompactions.Value() - compactBefore; got != 1 {
		t.Errorf("compact counter moved by %d, want 1", got)
	}

	// A later outage journals into the now-empty file again.
	failing = true
	sink.Emit(testBatch("10.2.0.4", 6))
	if journalSize(t, journal) == 0 {
		t.Fatal("post-compaction outage was not journaled")
	}
	relost, err := session.ReadAll(bytes.NewReader(readFileAll(t, journal)))
	if err != nil || len(relost) != 1 {
		t.Fatalf("post-compaction journal holds %v (%v), want 1 session", relost, err)
	}
}

// TestRetrySinkReingestsPriorRunJournal: a non-empty journal inherited from a
// crashed previous run is healed by the first successful Emit.
func TestRetrySinkReingestsPriorRunJournal(t *testing.T) {
	journal := journalTemp(t)
	backlog := testBatch("10.2.1.1", 9, 10)
	if err := session.WriteAll(journal, backlog); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sink := NewRetrySink(func(s []session.Session) error {
		return session.WriteAll(&buf, s)
	}, RetryOptions{Sleep: func(time.Duration) {}, DeadLetter: journal})

	sink.Emit(testBatch("10.2.1.2", 11))
	if size := journalSize(t, journal); size != 0 {
		t.Fatalf("prior-run journal still %d bytes, want healed to empty", size)
	}
	got, err := session.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d sessions reached the sink, want live + prior-run backlog", len(got))
	}
}

// TestRetrySinkKeepsJournalWhileFailing: compaction never truncates sessions
// the sink has not accepted — while the outage lasts, the journal only grows.
func TestRetrySinkKeepsJournalWhileFailing(t *testing.T) {
	journal := journalTemp(t)
	sink := NewRetrySink(func([]session.Session) error {
		return errors.New("still down")
	}, RetryOptions{MaxAttempts: 1, Sleep: func(time.Duration) {}, DeadLetter: journal})

	sink.Emit(testBatch("10.2.2.1", 1))
	first := journalSize(t, journal)
	sink.Emit(testBatch("10.2.2.2", 2))
	second := journalSize(t, journal)
	if first == 0 || second <= first {
		t.Fatalf("journal sizes %d -> %d, want monotone growth while failing", first, second)
	}
	got, err := session.ReadAll(bytes.NewReader(readFileAll(t, journal)))
	if err != nil {
		t.Fatalf("journal corrupted while failing: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("journal holds %d sessions, want 2", len(got))
	}
}

// TestRetrySinkPlainWriterJournalUntouched: a write-only dead-letter journal
// (no read/seek/truncate) keeps the old append-forever behavior — compaction
// is strictly opt-in via the writer's capabilities.
func TestRetrySinkPlainWriterJournalUntouched(t *testing.T) {
	var journal bytes.Buffer
	failing := true
	sink := NewRetrySink(func([]session.Session) error {
		if failing {
			return errors.New("outage")
		}
		return nil
	}, RetryOptions{MaxAttempts: 1, Sleep: func(time.Duration) {}, DeadLetter: &journal})

	sink.Emit(testBatch("10.2.3.1", 1))
	before := journal.Len()
	failing = false
	sink.Emit(testBatch("10.2.3.2", 2))
	if journal.Len() != before {
		t.Fatalf("plain io.Writer journal changed size %d -> %d across recovery", before, journal.Len())
	}
}

func readFileAll(t *testing.T, f *os.File) []byte {
	t.Helper()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRetrySinkBackoffCap: the backoff never exceeds MaxDelay no matter how
// many retries run.
func TestRetrySinkBackoffCap(t *testing.T) {
	var delays []time.Duration
	sink := NewRetrySink(func([]session.Session) error {
		return errors.New("always")
	}, RetryOptions{
		MaxAttempts: 8,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Sleep:       func(d time.Duration) { delays = append(delays, d) },
	})
	sink.Emit(testBatch("10.0.0.6", 2))
	if len(delays) != 7 {
		t.Fatalf("%d delays, want 7", len(delays))
	}
	want := []time.Duration{10, 20, 40, 50, 50, 50, 50}
	for i, d := range delays {
		if d != want[i]*time.Millisecond {
			t.Fatalf("delay %d = %v, want %v (all: %v)", i, d, want[i]*time.Millisecond, delays)
		}
	}
}
