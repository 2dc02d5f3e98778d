package core

import (
	"bytes"
	"fmt"
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
// with periodic Expire calls. The buffer map, the expiry wheel, and the
// entry backlog must all track the ACTIVE window — the users inside the last
// ρ — not the users ever seen; before eviction and the wheel, the buffer map
// grew one entry per user forever and every Expire scanned all of them.
func TestExpireBoundedByActiveUsers(t *testing.T) {
	if testing.Short() {
		t.Skip("million-user stream")
	}
	users := 1 << 20
	if raceEnabled {
		users = 1 << 17
	}
	g := goldenGraph()
	// Time-gap keeps single-entry reconstruction trivial; the test measures
	// state bounds, not heuristic cost.
	tl, err := NewTail(Config{Graph: g, Heuristic: heuristics.NewTimeGap()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)
	// 20 new users per second: with ρ = 10 min the active window holds
	// ~12k users, and the expire cadence below adds at most one interval's
	// worth on top. The bounds assert that order of magnitude, two decades
	// below the total user count.
	const perSec = 20
	const expireEvery = 8192
	sessions, maxActive, maxBuffered, maxBuckets := 0, 0, 0, 0
	for i := 0; i < users; i++ {
		at := base.Add(time.Duration(i) * (time.Second / perSec))
		host := fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255)
		sessions += len(tl.Push(tailRec(host, "/P1.html", at)))
		if i%expireEvery == 0 {
			sessions += len(tl.Expire(at))
			if a := tl.ActiveUsers(); a > maxActive {
				maxActive = a
			}
			if b := tl.Buffered(); b > maxBuffered {
				maxBuffered = b
			}
			if w := tl.wheelBuckets(); w > maxBuckets {
				maxBuckets = w
			}
		}
	}
	sessions += len(tl.Flush())
	if sessions != users {
		t.Errorf("sessions = %d, want one per user (%d)", sessions, users)
	}
	if st := tl.Stats(); st.Users != users || st.Sessions != users {
		t.Errorf("stats = %+v, want %d users and sessions", st, users)
	}
	// Window (~12k) + one expire interval (8192), with slack; a regression
	// back to users-ever-seen state blows through this by 30-60×.
	const activeBound = 1 << 15
	if maxActive > activeBound {
		t.Errorf("active users peaked at %d (bound %d) — state no longer bounded by the active window",
			maxActive, activeBound)
	}
	if maxBuffered > activeBound {
		t.Errorf("buffered entries peaked at %d (bound %d)", maxBuffered, activeBound)
	}
	// One ρ-wide bucket covers 12k arrivals here; an expire interval spans
	// ~7 buckets. A bound of 64 catches the wheel ever reverting to
	// per-user or per-second granularity.
	if maxBuckets > 64 {
		t.Errorf("expiry wheel peaked at %d buckets (bound 64)", maxBuckets)
	}
}

// TestRestoreRebuildsExpiryWheel pins that Restore re-seeds the expiry wheel
// from the snapshot's last-activity times: expiring a restored Tail evicts
// exactly the users the original would have evicted, in the same order.
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
}
