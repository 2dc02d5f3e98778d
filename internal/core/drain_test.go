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

// keep is the collecting sink of this package's tests. A SessionSink's batch
// is lent, so keeping sessions means cloning them; test binaries overwrite
// every lent batch after the sink returns (poisonLent), which turns a
// collector that merely appends the batch into a loud golden mismatch.
func keep(dst *[]session.Session) SessionSink {
	return func(batch []session.Session) {
		for _, s := range batch {
			*dst = append(*dst, s.Clone())
		}
	}
}

// TestLentBatchIsPoisoned pins the test-only poison itself: a sink that
// retains a lent batch without cloning must see sentinels afterwards, on
// the feeder path and on Drain. On the golden corpus, whose drain is one
// batch and whose arenas are never reused, that is every retained session.
// On one whose drain is nine batches on the one lent lane, an earlier
// batch's storage has since been rebuilt on, which is the other thing a
// keeper gets to see; the last batch's has not, and must read as sentinels.
func TestLentBatchIsPoisoned(t *testing.T) {
	if !poisonLent {
		t.Fatal("poisonLent is off in a test binary")
	}
	var ring bytes.Buffer
	for _, r := range drainCorpus(8*drainBatchUsers + 7) {
		ring.WriteString(r.String())
		ring.WriteByte('\n')
	}
	for name, log := range map[string][]byte{"golden": readGolden(t, "golden.log"), "ring": ring.Bytes()} {
		st, err := NewTail(Config{Graph: goldenGraph()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var retained []session.Session
		last := 0 // where the latest delivery starts in retained
		retain := func(batch []session.Session) {
			last = len(retained)
			retained = append(retained, batch...)
		}
		if _, err := st.Ingest(bytes.NewReader(log), retain, nil); err != nil {
			t.Fatal(err)
		}
		fed := len(retained)
		st.Drain(retain)
		if fed == 0 || len(retained) == fed {
			t.Fatalf("%s: corpus closed %d sessions while feeding, %d in Drain; want both > 0", name, fed, len(retained)-fed)
		}
		if name == "golden" {
			last = 0
		}
		for i, s := range retained[last:] {
			for _, e := range s.Entries {
				if e.Page >= 0 {
					t.Fatalf("%s: retained session %d still reads %v after its sink returned", name, last+i, s)
				}
			}
		}
	}
}

// drainCorpusOpen is the length of the burst drainCorpus leaves every user
// with: a detaching drain takes that many entries off Buffered per user (only
// the draining goroutine detaches, so its sink may read it).
const drainCorpusOpen = 5

// drainCorpus builds a log in which user i of n walks the paper's Figure 1
// site. Every user ends with an open burst, so the final drain closes
// exactly n users; every third user also has an earlier burst more than ρ
// before it (closed while feeding), and every fifth logs two requests of the
// open burst out of order (the burst's unsorted flag).
func drainCorpus(n int) []clf.Record {
	g := goldenGraph()
	walk := []string{g.Label(0), g.Label(1), g.Label(2), g.Label(0), g.Label(3)}
	base := time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC)
	var recs []clf.Record
	add := func(user int, at time.Time, uri string) {
		recs = append(recs, clf.Record{
			Host: fmt.Sprintf("10.%d.%d.%d", user>>16&255, user>>8&255, user&255), Ident: "-", AuthUser: "-",
			Time: at, Method: "GET", URI: uri, Protocol: "HTTP/1.1", Status: 200, Bytes: 100,
		})
	}
	for step := range walk {
		for u := 0; u < n; u++ {
			if u%3 == 0 {
				add(u, base.Add(time.Duration(step)*time.Minute), walk[step])
			}
		}
	}
	late := base.Add(2 * time.Hour)
	for step := range walk {
		for u := 0; u < n; u++ {
			at := late.Add(time.Duration(step) * time.Minute)
			if u%5 == 0 && step >= 3 {
				at = late.Add(time.Duration(7-step) * time.Minute) // steps 3 and 4 swapped
			}
			add(u, at, walk[(step+u)%len(walk)])
		}
	}
	return recs
}

// TestDrainEquivalence pins the streaming drain to the two older ways of
// emptying a sessionizer, byte for byte: a Push loop plus Flush on a plain
// Tail is the reference; PushBatch plus Flush must reproduce it on a Tail and
// on 1, 2 and 4 shards, and Ingest plus Drain on a Tail, across the
// drain-batch boundary (batch−1, batch, batch+1 open users), with a Snapshot/Restore in
// the middle of the input, and for a heuristic that reconstructs through
// plain Reconstruct (heur3) as well as for Smart-SRA on its owned scratch.
func TestDrainEquivalence(t *testing.T) {
	g := goldenGraph()
	heurs := map[string]func() heuristics.Reconstructor{
		"heur4": func() heuristics.Reconstructor { return nil }, // Config's default
		"heur3": func() heuristics.Reconstructor { return heuristics.NewNavigation(g) },
	}
	for name, heur := range heurs {
		for _, users := range []int{drainBatchUsers - 1, drainBatchUsers, drainBatchUsers + 1} {
			recs := drainCorpus(users)
			var log strings.Builder
			for _, r := range recs {
				log.WriteString(r.String())
				log.WriteByte('\n')
			}
			cfg := Config{Graph: g, Heuristic: heur()}

			ref, err := NewTail(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			var want []session.Session
			for _, r := range recs {
				want = append(want, ref.Push(r)...)
			}
			fedWant := len(want)
			want = append(want, ref.Flush()...)
			wantBytes := renderSessions(t, want)
			if fedWant == 0 || len(want) == fedWant {
				t.Fatalf("%s users=%d: corpus closes %d sessions while feeding, %d at the end; want both > 0", name, users, fedWant, len(want)-fedWant)
			}

			label := fmt.Sprintf("%s users=%d", name, users)
			build := func() *Tail {
				st, err := NewTail(cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			st := build()
			got := append(st.PushBatch(recs), st.Flush()...)
			if !bytes.Equal(renderSessions(t, got), wantBytes) {
				t.Errorf("%s: PushBatch+Flush differs from the Push loop", label)
			}
			for _, shards := range []int{1, 2, 4} {
				sh, err := NewShardedTail(cfg, 0, shards)
				if err != nil {
					t.Fatal(err)
				}
				if got := append(sh.PushBatch(recs), sh.Flush()...); !bytes.Equal(renderSessions(t, got), wantBytes) {
					t.Errorf("%s shards=%d: PushBatch+Flush differs from the Push loop", label, shards)
				}
			}

			st = build()
			got = nil
			if _, err := st.Ingest(strings.NewReader(log.String()), keep(&got), nil); err != nil {
				t.Fatal(err)
			}
			batches := 0
			collect := keep(&got)
			st.Drain(func(b []session.Session) { batches++; collect(b) })
			if !bytes.Equal(renderSessions(t, got), wantBytes) {
				t.Errorf("%s: Ingest+Drain differs from the Push loop", label)
			}
			if wantBatches := (users + drainBatchUsers - 1) / drainBatchUsers; batches != wantBatches {
				t.Errorf("%s: Drain delivered %d batches for %d open users, want %d", label, batches, users, wantBatches)
			}
			if st.Buffered() != 0 || len(st.Snapshot().Users) != 0 {
				t.Errorf("%s: Drain left %d entries, %d users buffered", label, st.Buffered(), len(st.Snapshot().Users))
			}
			if s := st.Stats(); s.Sessions != len(want) || s.Users != ref.Stats().Users {
				t.Errorf("%s: stats after Drain %+v, reference %+v", label, s, ref.Stats())
			}

			// Restore mid-input into a fresh Tail, then drain.
			half := len(recs) * 3 / 4
			src := build()
			got = src.PushBatch(recs[:half])
			st = build()
			if err := st.Restore(src.Snapshot()); err != nil {
				t.Fatal(err)
			}
			got = append(got, st.PushBatch(recs[half:])...)
			st.Drain(keep(&got))
			if !bytes.Equal(renderSessions(t, got), wantBytes) {
				t.Errorf("%s: Snapshot/Restore+Drain differs from the Push loop", label)
			}
		}
	}
}

// TestDrainMixedOwnership interleaves the two ownership regimes on one Tail:
// sessions returned by PushBatch and Expire are the caller's and must read
// the same after later lent deliveries have been made, released and (in
// tests) poisoned on the same Tail — by pushBatchTo, and by a Drain of one
// batch and of several, which rewind the lent lane after every batch.
func TestDrainMixedOwnership(t *testing.T) {
	for _, users := range []int{40, 8*drainBatchUsers + 40} {
		recs := drainCorpus(users)
		tl, err := NewTail(Config{Graph: goldenGraph()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		cut := len(recs) / 2
		owned := tl.PushBatch(recs[:cut])
		owned = append(owned, tl.Expire(recs[cut].Time)...)
		if len(owned) == 0 {
			t.Fatal("first half closed no session")
		}
		before := renderSessions(t, owned)
		var lent []session.Session
		var buf []session.Session
		buf = tl.pushBatchTo(buf, stageAll(tl, recs[cut:]), keep(&lent))
		tl.Drain(keep(&lent))
		owned2 := tl.PushBatch(recs[:cut]) // kept scratch again, after a release
		if !bytes.Equal(renderSessions(t, owned), before) {
			t.Fatalf("users=%d: caller-owned sessions changed after lent deliveries on the same Tail", users)
		}
		if len(lent) == 0 || len(owned2) == 0 {
			t.Fatalf("users=%d: lent %d, second owned batch %d sessions; want both > 0", users, len(lent), len(owned2))
		}
	}
}
