package core

import (
	"bytes"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/plan"
	"smartsra/internal/session"
)

// TestPlanGoldenEquivalence pins the planner's no-output-change contract:
// for machine shapes from 1 to 16 cores and every input kind, the
// auto-planned configuration — batch pipeline, Sessionizer ingest, and the
// sequential-fallback path alike — emits bytes identical to the committed
// golden corpus, i.e. to the sequential reference and (transitively,
// through TestGoldenCorpusBatch/Stream) to every explicit {workers, shards,
// depth} combination the harness sweeps. Runs under -race in CI.
func TestPlanGoldenEquivalence(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()
	wantBatch := readGolden(t, "golden.batch.sessions")
	wantStream := readGolden(t, "golden.stream.sessions")

	inputs := []plan.Input{
		{Cores: 1, SizeBytes: int64(len(log)), Kind: plan.KindFile},
		{Cores: 2, SizeBytes: int64(len(log)), Kind: plan.KindFile},
		{Cores: 4, SizeBytes: -1, Kind: plan.KindPipe},
		{Cores: 8, SizeBytes: 512 << 20, Kind: plan.KindFile}, // pretend-huge: full parallel plan
		{Cores: 16, SizeBytes: 6 << 20, Kind: plan.KindFile},  // shrunken chunks
	}
	for _, in := range inputs {
		for _, calibrated := range []bool{false, true} {
			pl := plan.Decide(in)
			if calibrated {
				// The probe may flip the plan to sequential depending on this
				// machine — either verdict must land on the same bytes.
				pl = plan.DecideCalibrated(in, bytes.Repeat(log, 1+(512<<10)/len(log)))
			}
			cfg := Config{Graph: g}.WithPlan(pl)

			p, err := NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.ProcessLog(bytes.NewReader(log))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderSessions(t, res.Sessions), wantBatch) {
				t.Fatalf("plan %+v (calibrated=%v): batch output differs from golden", pl, calibrated)
			}
			if res.Stats.Malformed != goldenMalformed {
				t.Fatalf("plan %+v: malformed = %d, want %d", pl, res.Stats.Malformed, goldenMalformed)
			}

			for _, concurrent := range []bool{false, true} {
				st, err := NewSessionizer(cfg, 0, pl.Shards, concurrent)
				if err != nil {
					t.Fatal(err)
				}
				var got []session.Session
				bad, err := st.Ingest(bytes.NewReader(log), keep(&got), nil)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, st.Flush()...)
				if bad != goldenMalformed || !bytes.Equal(renderSessions(t, got), wantStream) {
					t.Fatalf("plan %+v (concurrent=%v): stream output differs from golden (malformed=%d)",
						pl, concurrent, bad)
				}
			}
		}
	}
}

// TestNewSessionizerPicksProcessor: the sequential single-shard plan gets a
// plain Tail, anything concurrent or sharded gets the lock-striped
// ShardedTail.
func TestNewSessionizerPicksProcessor(t *testing.T) {
	g := goldenGraph()
	cfg := Config{Graph: g}
	s, err := NewSessionizer(cfg, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Tail); !ok {
		t.Fatalf("1 shard, not concurrent: got %T, want *Tail", s)
	}
	s, err = NewSessionizer(cfg, 0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*ShardedTail); !ok {
		t.Fatalf("concurrent: got %T, want *ShardedTail", s)
	}
	s, err = NewSessionizer(cfg, 0, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := s.(*ShardedTail); !ok || st.Shards() != 4 {
		t.Fatalf("4 shards: got %T, want 4-shard *ShardedTail", s)
	}
}

// TestSessionizerConcurrentExpire: the ShardedTail a concurrent plan
// produces tolerates Expire racing Ingest — the sessionize -stream periodic
// expiry path — without corrupting output counts (data races are caught by
// the suite's -race run).
func TestSessionizerConcurrentExpire(t *testing.T) {
	g := goldenGraph()
	log := readGolden(t, "golden.log")
	st, err := NewSessionizer(Config{Graph: g}, 0, 1, true)
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
