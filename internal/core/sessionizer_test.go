package core

import (
	"bytes"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// TestNewSessionizerPicksProcessor: one feeder with nothing beside it gets a
// plain Tail, anything concurrent the one-shard ShardedTail.
func TestNewSessionizerPicksProcessor(t *testing.T) {
	cfg := Config{Graph: goldenGraph()}
	s, err := NewSessionizer(cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Tail); !ok {
		t.Fatalf("not concurrent: got %T, want *Tail", s)
	}
	s, err = NewSessionizer(cfg, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := s.(*ShardedTail); !ok || st.Shards() != 1 {
		t.Fatalf("concurrent: got %T, want a 1-shard *ShardedTail", s)
	}
}

// TestSessionizerConcurrentExpire: the ShardedTail a concurrent caller gets
// tolerates Expire racing Ingest — the sessionize -stream periodic expiry
// path — without corrupting output counts (data races are caught by the
// suite's -race run).
func TestSessionizerConcurrentExpire(t *testing.T) {
	g := goldenGraph()
	log := readGolden(t, "golden.log")
	st, err := NewSessionizer(Config{Graph: g}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				st.Expire(time.Now())
			}
		}
	}()
	var got []session.Session
	if _, err := st.Ingest(bytes.NewReader(log), keep(&got), nil); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	got = append(got, st.Flush()...)
	// The golden log's records are historical, so the racing wall-clock
	// Expire closes bursts at arbitrary moments and the session split may
	// legitimately differ from the reference — but every record must still
	// be consumed and nothing may deadlock or race.
	refRecords, _, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Records; got != len(refRecords) {
		t.Fatalf("racing Expire lost records: processed %d, want %d", got, len(refRecords))
	}
	if st.Buffered() != 0 {
		t.Fatalf("%d entries still buffered after Flush", st.Buffered())
	}
	if len(got) == 0 {
		t.Fatal("no sessions emitted")
	}
}
