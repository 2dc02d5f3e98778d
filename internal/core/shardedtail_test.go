package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// simulatedLog produces a realistic record mix for equivalence tests.
func simulatedLog(t *testing.T, seed int64, agents int) (*webgraph.Graph, []clf.Record) {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 60, AvgOutDegree: 5, StartPageFraction: 0.1,
		Model: webgraph.ModelUniform, EnsureReachable: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	params := simulator.PaperParams()
	params.Agents = agents
	params.Seed = seed
	sim, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	return g, sim.Log(g)
}

func sessionStrings(sessions []session.Session) []string {
	out := make([]string, len(sessions))
	for i, s := range sessions {
		out[i] = s.String()
	}
	return out
}

// TestShardedTailEquivalentToTail pins the determinism contract: for any
// shard count and any Expire interleaving, a ShardedTail fed sequentially
// emits exactly the sessions a single Tail emits, in the same order.
func TestShardedTailEquivalentToTail(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		g, records := simulatedLog(t, seed, 80)
		for _, shards := range []int{1, 2, 3, 8, 32} {
			for _, expireEvery := range []int{0, 97, 13} {
				ref, err := NewTail(Config{Graph: g}, 0)
				if err != nil {
					t.Fatal(err)
				}
				st, err := NewShardedTail(Config{Graph: g}, 0, shards)
				if err != nil {
					t.Fatal(err)
				}
				var want, got []session.Session
				for i, rec := range records {
					want = append(want, ref.Push(rec)...)
					got = append(got, st.Push(rec)...)
					if expireEvery > 0 && i%expireEvery == expireEvery-1 {
						want = append(want, ref.Expire(rec.Time)...)
						got = append(got, st.Expire(rec.Time)...)
					}
				}
				want = append(want, ref.Flush()...)
				got = append(got, st.Flush()...)

				ws, gs := sessionStrings(want), sessionStrings(got)
				if len(ws) != len(gs) {
					t.Fatalf("seed=%d shards=%d expire=%d: %d vs %d sessions",
						seed, shards, expireEvery, len(gs), len(ws))
				}
				for i := range ws {
					if ws[i] != gs[i] {
						t.Fatalf("seed=%d shards=%d expire=%d: session %d differs:\ntail:    %s\nsharded: %s",
							seed, shards, expireEvery, i, ws[i], gs[i])
					}
				}
				if rs, ss := ref.Stats(), st.Stats(); rs != ss {
					t.Fatalf("seed=%d shards=%d expire=%d: stats differ: tail %+v, sharded %+v",
						seed, shards, expireEvery, rs, ss)
				}
				if ref.Buffered() != st.Buffered() {
					t.Fatalf("buffered differ: %d vs %d", ref.Buffered(), st.Buffered())
				}
			}
		}
	}
}

// TestShardedTailConcurrentFeeders drives a ShardedTail from several
// goroutines (records partitioned by user, so each user's arrival order is
// preserved) and checks the union of emitted sessions equals the single-Tail
// output as a multiset. Run under -race this also pins the locking.
func TestShardedTailConcurrentFeeders(t *testing.T) {
	g, records := simulatedLog(t, 3, 100)

	ref, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []session.Session
	for _, rec := range records {
		want = append(want, ref.Push(rec)...)
	}
	want = append(want, ref.Flush()...)

	st, err := NewShardedTail(Config{Graph: g}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	const feeders = 6
	perFeeder := make([][]clf.Record, feeders)
	for _, rec := range records {
		f := shardOf(rec.Host, feeders)
		perFeeder[f] = append(perFeeder[f], rec)
	}
	var (
		mu  sync.Mutex
		got []session.Session
		wg  sync.WaitGroup
	)
	for _, part := range perFeeder {
		wg.Add(1)
		go func(part []clf.Record) {
			defer wg.Done()
			var local []session.Session
			for _, rec := range part {
				local = append(local, st.Push(rec)...)
			}
			mu.Lock()
			got = append(got, local...)
			mu.Unlock()
		}(part)
	}
	wg.Wait()
	got = append(got, st.Flush()...)

	if len(got) != len(want) {
		t.Fatalf("concurrent feed emitted %d sessions, sequential tail %d", len(got), len(want))
	}
	count := make(map[string]int)
	for _, s := range want {
		count[s.String()]++
	}
	for _, s := range got {
		count[s.String()]--
	}
	for k, c := range count {
		if c != 0 {
			t.Fatalf("session multiset differs at %q (%+d)", k, c)
		}
	}
	if rs, ss := ref.Stats(), st.Stats(); rs != ss {
		t.Fatalf("stats differ: tail %+v, sharded %+v", rs, ss)
	}
}

// TestShardedTailConcurrentExpireInterleaving pins the overlapped Expire
// drain: while several feeders push the second half of a time-shifted log,
// several other goroutines concurrently Expire the first half (whose bursts
// are all ρ-complete), poll Buffered/Stats, and finally two goroutines race
// Flush. The construction makes the outcome deterministic — every
// first-half burst is separated from its user's second half by > ρ, so
// whether Expire or the user's next Push closes it, the burst's entries
// (and therefore its sessions) are identical — and the union of everything
// emitted must equal the sequential single-Tail multiset. Run under -race
// this also pins the per-shard locking of the concurrent drain.
func TestShardedTailConcurrentExpireInterleaving(t *testing.T) {
	g, phase1 := simulatedLog(t, 13, 90)

	// Second phase: the same traffic shifted 3ρ past the end of phase one,
	// so every user's cross-phase gap exceeds ρ and Expire(mid) can never
	// touch an open second-phase burst.
	rho := session.DefaultPageStay
	minT, maxT := phase1[0].Time, phase1[0].Time
	for _, rec := range phase1 {
		if rec.Time.Before(minT) {
			minT = rec.Time
		}
		if rec.Time.After(maxT) {
			maxT = rec.Time
		}
	}
	shift := maxT.Sub(minT) + 3*rho
	phase2 := make([]clf.Record, len(phase1))
	for i, rec := range phase1 {
		rec.Time = rec.Time.Add(shift)
		phase2[i] = rec
	}
	mid := maxT.Add(rho + time.Second)

	// Sequential reference: one Tail, both phases in order, one Flush.
	ref, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []session.Session
	for _, rec := range append(append([]clf.Record(nil), phase1...), phase2...) {
		want = append(want, ref.Push(rec)...)
	}
	want = append(want, ref.Flush()...)

	st, err := NewShardedTail(Config{Graph: g}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu  sync.Mutex
		got []session.Session
	)
	emit := func(s []session.Session) {
		if len(s) == 0 {
			return
		}
		mu.Lock()
		got = append(got, s...)
		mu.Unlock()
	}
	const feeders = 5
	partition := func(records []clf.Record) [][]clf.Record {
		parts := make([][]clf.Record, feeders)
		for _, rec := range records {
			f := shardOf(rec.Host, feeders)
			parts[f] = append(parts[f], rec)
		}
		return parts
	}

	// Phase one: concurrent feeders only (no Expire yet — a mid-phase
	// expiry could close a half-arrived burst and break determinism).
	var wg sync.WaitGroup
	for _, part := range partition(phase1) {
		wg.Add(1)
		go func(part []clf.Record) {
			defer wg.Done()
			for _, rec := range part {
				emit(st.Push(rec))
			}
		}(part)
	}
	wg.Wait()

	// Phase two: feeders, three concurrent expirers of the completed first
	// phase, and metric readers, all interleaving freely.
	for _, part := range partition(phase2) {
		wg.Add(1)
		go func(part []clf.Record) {
			defer wg.Done()
			for _, rec := range part {
				emit(st.Push(rec))
			}
		}(part)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			emit(st.Expire(mid))
			st.Buffered()
			st.Stats()
			emit(st.Expire(mid))
		}()
	}
	wg.Wait()

	// Racing flushes: every remaining burst closes exactly once, split
	// arbitrarily between the two callers.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			emit(st.Flush())
		}()
	}
	wg.Wait()

	if len(got) != len(want) {
		t.Fatalf("emitted %d sessions, sequential tail %d", len(got), len(want))
	}
	count := make(map[string]int)
	for _, s := range want {
		count[s.String()]++
	}
	for _, s := range got {
		count[s.String()]--
	}
	for k, c := range count {
		if c != 0 {
			t.Fatalf("session multiset differs at %q (%+d)", k, c)
		}
	}
	// Users counts activations, so the sharded run may exceed the
	// Expire-free reference: each Expire(mid) evicts quiet phase-one users,
	// and any whose phase-two record lands after the eviction re-activate.
	// How many depends on the Push/Expire interleaving; every other counter
	// is exact.
	rs, ss := ref.Stats(), st.Stats()
	if ss.Users < rs.Users {
		t.Fatalf("sharded users %d < reference %d", ss.Users, rs.Users)
	}
	rs.Users, ss.Users = 0, 0
	if rs != ss {
		t.Fatalf("stats differ: tail %+v, sharded %+v", rs, ss)
	}
	if st.Buffered() != 0 {
		t.Fatalf("buffered after flush = %d", st.Buffered())
	}
}

// TestPipelineParallelMatchesSequential pins Pipeline.ProcessLog, whose log
// is parsed on a goroutine beside the caller, to ProcessRecords over the
// sequential Scanner's records: same stats, sessions and streams.
func TestPipelineParallelMatchesSequential(t *testing.T) {
	g, records := simulatedLog(t, 5, 120)
	var buf bytes.Buffer
	if err := clf.WriteAll(&buf, records); err != nil {
		t.Fatal(err)
	}
	log := buf.Bytes()
	scanned, malformed, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil || malformed != 0 {
		t.Fatalf("ReadAll: %d malformed, err %v", malformed, err)
	}

	for _, h := range []heuristics.Reconstructor{nil, heuristics.NewTimeGap()} {
		p, err := NewPipeline(Config{Graph: g, Heuristic: h})
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.ProcessRecords(scanned)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.ProcessLog(bytes.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		name := p.Heuristic().Name()
		if got.Stats != want.Stats {
			t.Fatalf("%s: stats differ: %+v vs %+v", name, got.Stats, want.Stats)
		}
		ws, gs := sessionStrings(want.Sessions), sessionStrings(got.Sessions)
		if len(ws) != len(gs) {
			t.Fatalf("%s: %d sessions vs %d", name, len(gs), len(ws))
		}
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("%s: session %d differs:\nseq: %s\npar: %s", name, i, ws[i], gs[i])
			}
		}
		if len(got.Streams) != len(want.Streams) {
			t.Fatalf("%s: %d streams vs %d", name, len(got.Streams), len(want.Streams))
		}
		for i := range want.Streams {
			if want.Streams[i].User != got.Streams[i].User ||
				len(want.Streams[i].Entries) != len(got.Streams[i].Entries) {
				t.Fatalf("%s: stream %d differs", name, i)
			}
		}
	}
}

func TestShardedTailValidation(t *testing.T) {
	if _, err := NewShardedTail(Config{}, 0, 4); err == nil {
		t.Error("nil graph accepted")
	}
	g, _ := webgraph.PaperFigure1()
	st, err := NewShardedTail(Config{Graph: g}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() < 1 {
		t.Errorf("default shard count = %d", st.Shards())
	}
}
