package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/session"
)

// TestGoldenCorpusBatchSizes pins PushBatch's contract directly: feeding the
// golden corpus through PushBatch in every batch size — record-at-a-time,
// tiny, chunk-unaligned, large, and the whole log at once — produces bytes
// identical to the committed golden stream output, on the plain Tail and on
// every shard count. The same corpus then runs through Tail.Ingest — the
// path cmd/serve and cmd/sessionize actually take — where a batch is a
// chunk, in chunks from about one line to the whole log.
// wheelBuckets returns the number of non-empty expiry-wheel buckets (test
// and debugging hook: the wheel's size tracks the active window, not the
// total users seen).
func (t *Tail) wheelBuckets() int { return len(t.wheel) }

func TestGoldenCorpusBatchSizes(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()
	want := readGolden(t, "golden.stream.sessions")

	records, bad, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if bad != goldenMalformed {
		t.Fatalf("ReadAll malformed = %d, want %d", bad, goldenMalformed)
	}

	type proc struct {
		name      string
		pushBatch func([]clf.Record) []session.Session
		flush     func() []session.Session
	}
	newProc := func(shards int) proc {
		cfg := Config{Graph: g}
		if shards == 0 {
			tl, err := NewTail(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			return proc{name: "tail", pushBatch: tl.PushBatch, flush: tl.Flush}
		}
		st, err := NewShardedTail(cfg, 0, shards)
		if err != nil {
			t.Fatal(err)
		}
		return proc{name: fmt.Sprintf("sharded/%d", shards), pushBatch: st.PushBatch, flush: st.Flush}
	}

	for _, shards := range []int{0, 1, 3, 8} {
		for _, size := range []int{1, 2, 7, 64, len(records)} {
			p := newProc(shards)
			var got []session.Session
			for off := 0; off < len(records); off += size {
				end := off + size
				if end > len(records) {
					end = len(records)
				}
				got = append(got, p.pushBatch(records[off:end])...)
			}
			got = append(got, p.flush()...)
			if !bytes.Equal(renderSessions(t, got), want) {
				t.Fatalf("%s PushBatch(size=%d): sessions differ from golden", p.name, size)
			}
		}
	}

	for _, chunk := range []int{0, 128, 1024, 64 << 10} {
		tl, err := NewTail(Config{Graph: g, StreamChunkBytes: chunk}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []session.Session
		malformed, err := tl.Ingest(bytes.NewReader(log), keep(&got), nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tl.Flush()...)
		if malformed != goldenMalformed {
			t.Fatalf("chunk=%d: malformed %d, want %d", chunk, malformed, goldenMalformed)
		}
		if !bytes.Equal(renderSessions(t, got), want) {
			t.Fatalf("chunk=%d: Ingest sessions differ from golden", chunk)
		}
	}
}

// TestExpireBoundedByActiveUsers is the unbounded-growth regression test: a
// million distinct users, each appearing once and never returning, streamed
// with periodic Expire calls, and streamed with none, as a file is read. The
// buffer map, the expiry wheel, and the entry backlog must all track the
// ACTIVE window, not the users ever seen: the users inside the last ρ plus
// one expire interval under Expire, and without it the last 3ρ of log time,
// which is the most the log's clock leaves open. Before eviction and the
// wheel, the buffer map grew one entry per user forever and every Expire
// scanned all of them; before the log's clock, a run with no Expire held
// every user to the end.
func TestExpireBoundedByActiveUsers(t *testing.T) {
	if testing.Short() {
		t.Skip("million-user stream")
	}
	users := 1 << 20
	if raceEnabled {
		users = 1 << 17
	}
	g := goldenGraph()
	base := time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)
	// 20 new users per second: with ρ = 10 min the active window holds
	// ~12k users, and the expire cadence below adds at most one interval's
	// worth on top; with no Expire the window is 2ρ to 3ρ, 24k to 36k users.
	// The bounds assert that order of magnitude, a decade or two below the
	// total user count.
	const perSec = 20
	const sampleEvery = 8192
	for _, tc := range []struct {
		name        string
		expire      bool
		activeBound int
	}{
		// Window (~12k) + one expire interval (8192), with slack.
		{"expire", true, 1 << 15},
		// Three ρ of arrivals, and the one record that moves the clock.
		{"log clock", false, 3*600*perSec + 1},
	} {
		// Time-gap keeps single-entry reconstruction trivial; the test
		// measures state bounds, not heuristic cost.
		tl, err := NewTail(Config{Graph: g, Heuristic: heuristics.NewTimeGap()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		sessions, maxActive, maxBuffered, maxBuckets := 0, 0, 0, 0
		for i := 0; i < users; i++ {
			at := base.Add(time.Duration(i) * (time.Second / perSec))
			host := fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255)
			sessions += len(tl.Push(tailRec(host, "/P1.html", at)))
			if i%sampleEvery == 0 {
				if tc.expire {
					sessions += len(tl.Expire(at))
				}
				maxActive = max(maxActive, tl.ActiveUsers())
				maxBuffered = max(maxBuffered, tl.Buffered())
				maxBuckets = max(maxBuckets, tl.wheelBuckets())
			}
		}
		sessions += len(tl.Flush())
		if sessions != users {
			t.Errorf("%s: sessions = %d, want one per user (%d)", tc.name, sessions, users)
		}
		if st := tl.Stats(); st.Users != users || st.Sessions != users {
			t.Errorf("%s: stats = %+v, want %d users and sessions", tc.name, st, users)
		}
		// A regression back to users-ever-seen state blows through this by
		// 30-60×.
		if maxActive > tc.activeBound {
			t.Errorf("%s: active users peaked at %d (bound %d) — state no longer bounded by the active window",
				tc.name, maxActive, tc.activeBound)
		}
		if maxBuffered > tc.activeBound {
			t.Errorf("%s: buffered entries peaked at %d (bound %d)", tc.name, maxBuffered, tc.activeBound)
		}
		// One ρ-wide bucket covers 12k arrivals here; an expire interval
		// spans ~7 buckets. A bound of 64 catches the wheel ever reverting to
		// per-user or per-second granularity, or keeping every bucket.
		if maxBuckets > 64 {
			t.Errorf("%s: expiry wheel peaked at %d buckets (bound 64)", tc.name, maxBuckets)
		}
	}
}

// TestRestoreRebuildsExpiryWheel pins that Restore re-seeds the expiry wheel
// from the snapshot's last-activity times: expiring a restored Tail evicts
// exactly the users the original would have evicted, in the same order. It
// also rebuilds the log's clock from the newest of them, so a restored Tail
// sweeps at the same record as the original, closing the same users.
func TestRestoreRebuildsExpiryWheel(t *testing.T) {
	g := goldenGraph()
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	tl, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tl.Push(tailRec("a", "/P1.html", t0))
	tl.Push(tailRec("b", "/P49.html", t0.Add(8*time.Minute)))
	snap := tl.Snapshot()

	restored, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := restored.Expire(t0.Add(11 * time.Minute)); len(got) != 1 || got[0].User != "a" {
		t.Fatalf("expire after restore emitted %v, want user a only", got)
	}
	if restored.ActiveUsers() != 1 {
		t.Errorf("active users = %d after expiry, want 1", restored.ActiveUsers())
	}
	if got := restored.Expire(t0.Add(30 * time.Minute)); len(got) != 1 || got[0].User != "b" {
		t.Fatalf("second expire emitted %v, want user b", got)
	}

	// The clock. ρ-wide buckets start on the ten minutes. At b's record the
	// clock minus ρ enters the 12:00 bucket and sweeps: a, quiet 19 minutes,
	// stays open. c's record at 12:19 stays in that bucket, so nothing sweeps,
	// though a is now 28 minutes quiet; d's at 12:21 enters the 12:10 bucket
	// and closes a. A restored Tail that swept at its first record would close
	// a at c's.
	tl, err = NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tl.Push(tailRec("a", "/P1.html", t0.Add(-9*time.Minute)))
	tl.Push(tailRec("b", "/P1.html", t0.Add(10*time.Minute)))
	if err := restored.Restore(tl.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		user  string
		at    time.Duration
		close string
	}{{"c", 19 * time.Minute, ""}, {"d", 21 * time.Minute, "a:[0]"}, {"e", 29 * time.Minute, ""}} {
		rec := tailRec(step.user, "/P1.html", t0.Add(step.at))
		want, got := tl.Push(rec), restored.Push(rec)
		if w, g := strings.Join(sessionStrings(want), " "), strings.Join(sessionStrings(got), " "); w != step.close || g != w {
			t.Errorf("at %s's record the original closed %q, the restored Tail %q; want %q", step.user, w, g, step.close)
		}
	}
}
