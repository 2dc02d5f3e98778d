package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"smartsra/internal/heuristics"
	"smartsra/internal/session"
)

// restoreProcs puts GOMAXPROCS back when the test ends: these tests set it
// themselves, whatever -cpu said.
func restoreProcs(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// drainGoroutines counts the goroutines drainLent started that are still
// alive, and how many of those are parked waiting for a slot. It reads the
// runtime's own goroutine dump: the lanes are the only function literals in
// (*Tail).drainLent, and a parked one's header says "chan receive".
func drainGoroutines() (alive, idle int) {
	buf := stackBuf[:runtime.Stack(stackBuf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("core.(*Tail).drainLent.func")) {
			continue
		}
		alive++
		if header, _, _ := bytes.Cut(g, []byte("\n")); bytes.Contains(header, []byte("chan receive")) {
			idle++
		}
	}
	return alive, idle
}

// drainGoroutinesGone waits until no goroutine of a finished drain is left.
// Drain joins its lanes through a WaitGroup, and Wait returns when the last
// lane calls Done — a moment before that goroutine has left the runtime's
// list — so "gone" settles rather than holds at once; the deadline is the
// failure guard.
func drainGoroutinesGone(t *testing.T, label string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		alive, _ := drainGoroutines()
		if alive == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s: %d drain goroutines still alive 10 s after Drain returned", label, alive)
			return
		}
	}
}

// stackBuf is drainGoroutines' dump buffer; only test goroutines use it, one
// at a time.
var stackBuf = make([]byte, 1<<20)

// wantLanes is the number of goroutines a Drain of users open users starts
// at GOMAXPROCS procs.
func wantLanes(users, procs int) int {
	if users <= drainBatchUsers || procs == 1 {
		return 0
	}
	return min(procs, drainSlots)
}

// TestDrainLanesMatchInline holds the Drain that reconstructs on goroutines
// to the reference that cannot: a Push loop plus Flush on a plain Tail. For
// open-user counts on both sides of one batch and of one trip round the slot
// ring (9 batches wrap it twice), with unsorted bursts (drainCorpus), for
// Smart-SRA on owned arenas and for heur3 through plain Reconstruct, at
// GOMAXPROCS 1, 2 and 4: the same bytes, batch
// count and Stats, nothing left buffered, exactly one
// core.tail.reconstruct.seconds observation per user closed, and exactly the
// goroutines wantLanes says — none on one P or for one batch — never more
// than drainSlots batches detached at a time.
func TestDrainLanesMatchInline(t *testing.T) {
	restoreProcs(t)
	g := goldenGraph()
	heurs := map[string]func() heuristics.Reconstructor{
		"heur4": func() heuristics.Reconstructor { return nil }, // Config's default
		"heur3": func() heuristics.Reconstructor { return heuristics.NewNavigation(g) },
	}
	const b = drainBatchUsers
	for _, users := range []int{0, 1, b, b + 1, drainSlots*b - 1, drainSlots*b + 1, 9*b + 3} {
		recs := drainCorpus(users)
		for name, heur := range heurs {
			cfg := Config{Graph: g, Heuristic: heur()}
			ref, err := NewTail(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			hist := ref.kept.hist
			var want []session.Session
			for _, r := range recs {
				want = append(want, ref.Push(r)...)
			}
			before := hist.Count()
			want = append(want, ref.Flush()...)
			if closed := hist.Count() - before; closed != int64(users) {
				t.Fatalf("%s users=%d: Flush observed %d reconstructions", name, users, closed)
			}
			wantBytes := renderSessions(t, want)

			for _, procs := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s users=%d procs=%d", name, users, procs)
				runtime.GOMAXPROCS(procs)
				st, err := NewTail(cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				got := st.PushBatch(recs)
				before := hist.Count()
				batches := 0
				collect := keep(&got)
				st.Drain(func(batch []session.Session) {
					if alive, _ := drainGoroutines(); alive != wantLanes(users, procs) {
						t.Errorf("%s: %d drain goroutines alive in the sink, want %d", label, alive, wantLanes(users, procs))
					}
					batches++
					detached := users - st.Buffered()/drainCorpusOpen
					if ahead := detached - (batches-1)*b; ahead > drainSlots*b {
						t.Errorf("%s: %d users detached beyond the %d sunk, more than %d slots hold", label, ahead, (batches-1)*b, drainSlots)
					}
					collect(batch)
				})
				if closed := hist.Count() - before; closed != int64(users) {
					t.Errorf("%s: Drain observed %d reconstructions, want %d", label, closed, users)
				}
				drainGoroutinesGone(t, label)
				if !bytes.Equal(renderSessions(t, got), wantBytes) {
					t.Errorf("%s: PushBatch+Drain differs from the Push loop + Flush", label)
				}
				if wantBatches := (users + b - 1) / b; batches != wantBatches {
					t.Errorf("%s: Drain delivered %d batches, want %d", label, batches, wantBatches)
				}
				if st.Buffered() != 0 || len(st.Snapshot().Users) != 0 {
					t.Errorf("%s: Drain left %d entries, %d users buffered", label, st.Buffered(), len(st.Snapshot().Users))
				}
				if s := st.Stats(); s != ref.Stats() {
					t.Errorf("%s: stats after Drain %+v, reference %+v", label, s, ref.Stats())
				}
			}
		}
	}
}

// TestDrainSinkBlocksLanesRunAhead is the handoff seen from a slow sink: while
// the sink holds batch k, the lanes finish everything queued and park — the
// sink waits until the runtime says every one of them is blocked on the work
// channel — and by then the caller has detached exactly the drainSlots
// batches the ring holds, counting the one in the sink, and no more. The
// deadline is the failure guard, not the synchronisation.
func TestDrainSinkBlocksLanesRunAhead(t *testing.T) {
	restoreProcs(t)
	const users = 9*drainBatchUsers + 3
	recs := drainCorpus(users)
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		st, err := NewTail(Config{Graph: goldenGraph()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		st.PushBatch(recs)
		sunk := 0
		st.Drain(func(batch []session.Session) {
			deadline := time.Now().Add(30 * time.Second)
			for {
				alive, idle := drainGoroutines()
				if alive != min(procs, drainSlots) {
					t.Fatalf("procs=%d: %d drain goroutines, want %d", procs, alive, min(procs, drainSlots))
				}
				if idle == alive {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("procs=%d: %d of %d lanes still busy behind a blocked sink", procs, alive-idle, alive)
				}
				time.Sleep(100 * time.Microsecond)
			}
			want := min(users, (sunk+drainSlots)*drainBatchUsers)
			if detached := users - st.Buffered()/drainCorpusOpen; detached != want {
				t.Errorf("procs=%d: %d users detached with batch %d in the sink and the lanes idle, want %d", procs, detached, sunk, want)
			}
			sunk++
		})
		if want := (users + drainBatchUsers - 1) / drainBatchUsers; sunk != want {
			t.Errorf("procs=%d: %d batches sunk, want %d", procs, sunk, want)
		}
	}
}

// TestDrainLeavesNoGoroutine: a Drain joins what it started on every exit —
// the normal one, and a sink that panics in the first, a middle or the last
// batch (the test recovers) with slots queued behind it. Once Drain has
// returned or unwound, its goroutines are gone and NumGoroutine settles no
// higher than before; on one P there was never anything to join.
func TestDrainLeavesNoGoroutine(t *testing.T) {
	restoreProcs(t)
	const users = 6*drainBatchUsers + 1
	recs := drainCorpus(users)
	for _, procs := range []int{1, 2, 4} {
		for _, panicAt := range []int{-1, 0, 3, 6} {
			runtime.GOMAXPROCS(procs)
			st, err := NewTail(Config{Graph: goldenGraph()}, 0)
			if err != nil {
				t.Fatal(err)
			}
			st.PushBatch(recs)
			before := runtime.NumGoroutine()
			batch, started := 0, 0
			func() {
				defer func() {
					if r := recover(); r != nil && r != "sink" {
						panic(r)
					}
				}()
				st.Drain(func([]session.Session) {
					alive, _ := drainGoroutines()
					started = max(started, alive)
					if batch == panicAt {
						panic("sink")
					}
					batch++
				})
			}()
			drainGoroutinesGone(t, fmt.Sprintf("procs=%d panic at batch %d", procs, panicAt))
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("procs=%d panic at batch %d: %d goroutines before Drain, %d after", procs, panicAt, before, after)
			}
			if started != wantLanes(users, procs) {
				t.Errorf("procs=%d: Drain started %d goroutines, want %d", procs, started, wantLanes(users, procs))
			}
			// Whatever the sink did, the Tail stays usable: a second Drain
			// closes what the first had not detached.
			st.Drain(DiscardSessions)
			if st.Buffered() != 0 {
				t.Errorf("procs=%d panic at batch %d: %d entries buffered after a second Drain", procs, panicAt, st.Buffered())
			}
		}
	}
}
