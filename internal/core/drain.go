package core

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"smartsra/internal/heuristics"
	"smartsra/internal/metrics"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// drainBatchUsers bounds how many users one drain step closes before their
// sessions go to the sink: a drain holds one batch of sessions, whatever the
// number of open users. At the ~10 sessions a simulated user's burst
// reconstructs to, a batch is a few thousand sessions and ~100 KB of text —
// enough to amortize the sink call, little enough to stay in cache between
// reconstruction and encoding.
const drainBatchUsers = 256

// closeAll is Flush and Expire: the picked users, in user order, are closed
// and evicted on the kept lane, so the sessions are the caller's to keep.
func (t *Tail) closeAll(users []string) []session.Session {
	var out []session.Session
	for _, u := range users {
		out = t.closeUser(out, u)
	}
	t.syncMetrics()
	return out
}

// closeUser closes and evicts one picked user (see detachUser), appending
// their sessions onto dst. The caller syncs metrics.
func (t *Tail) closeUser(dst []session.Session, user string) []session.Session {
	if st, ok := t.detachUser(user); ok {
		dst = t.closeInto(dst, st)
	}
	return dst
}

// reconstructSampleEvery is the close-timing sample rate: a lane's first
// close and every Nth after it run under the clock, and the untimed closes
// between are folded into a sampled observation by weight. At millions of
// bursts per second the histogram's cost drops to ~nothing while count stays
// exact and the estimated distribution tracks the true one.
const reconstructSampleEvery = 64

// lane is one place reconstruction runs: the heuristic's append on a scratch
// of the lane's own (Smart-SRA's WithScratch; any other heuristic goes
// through Reconstruct, safe for concurrent use, and release does nothing)
// and the sampling clock of core.tail.reconstruct.seconds, one series per
// heuristic. release ends the life of every session appended since the last
// release. One goroutine at a time uses a lane.
type lane struct {
	appendTo func([]session.Session, session.Stream) []session.Session
	release  func()
	hist     *metrics.Histogram
	skip     int64   // closes left before the next timed one
	untimed  int64   // closes not yet in hist
	last     float64 // the latest timed close, seconds
}

func newLane(h heuristics.Reconstructor) *lane {
	l := &lane{
		appendTo: func(dst []session.Session, st session.Stream) []session.Session {
			return append(dst, h.Reconstruct(st)...)
		},
		release: func() {},
		hist:    metrics.GetHistogram(metrics.WithLabels("core.tail.reconstruct.seconds", "heur", h.Name())),
	}
	if sra, ok := h.(interface {
		WithScratch() (func([]session.Session, session.Stream) []session.Session, func())
	}); ok {
		l.appendTo, l.release = sra.WithScratch()
	}
	return l
}

// reconstruct appends st's sessions onto dst.
func (l *lane) reconstruct(dst []session.Session, st session.Stream) []session.Session {
	if l.skip > 0 {
		l.skip--
		l.untimed++
		return l.appendTo(dst, st)
	}
	start := time.Now()
	dst = l.appendTo(dst, st)
	l.last = time.Since(start).Seconds()
	l.hist.ObserveWeighted(l.last, 1+l.untimed)
	l.untimed = 0
	l.skip = reconstructSampleEvery - 1
	return dst
}

// flush books the closes since the last timed one at its value, so the
// histogram's count is exact whenever the lane's owner looks.
func (l *lane) flush() {
	if l.untimed != 0 {
		l.hist.ObserveWeighted(l.last, l.untimed)
		l.untimed = 0
	}
}

// drainSlots is how many batches a drain has detached at once — one in the
// sink, the others queued or reconstructing — and the most goroutines it
// reconstructs on: what stays on the caller (pick, detach, encode, write) was
// ~30 % of the inline drain, so past four the caller is the slow side.
const drainSlots = 4

// drainSlot is one batch in flight through drainLent: the reconstructing
// goroutine's from queueing until done, the caller's before and after.
type drainSlot struct {
	lane    *lane
	streams []session.Stream
	batch   []session.Session
	done    chan struct{}
}

func (s *drainSlot) reconstruct() {
	for _, st := range s.streams {
		s.batch = s.lane.reconstruct(s.batch, st)
	}
}

// Which side of the drain's handoff waited, as clf.decode.* and clf.parse.*
// say it: wait_ns is the caller blocked on (with no goroutines: building) the
// next batch in order. Close to ns, Phase 2 bounds the drain and cores would
// help; far below it, pick, detach, encode and the sink do.
var (
	metricDrainBatches = metrics.GetCounter("core.drain.batches")
	metricDrainUsers   = metrics.GetCounter("core.drain.users")
	metricDrainNs      = metrics.GetCounter("core.drain.ns")
	metricDrainWaitNs  = metrics.GetCounter("core.drain.wait_ns")
)

// drainLent is the engine behind Drain, which picked users, in user order,
// since start. Each slot is filled with the next batch of at most
// drainBatchUsers detached streams; the batch is reconstructed on the slot's
// lane, lent to sink under SessionSink's rule, then its arena is released and
// settle accounts for it. Detach, sink and settle run on the caller, strictly
// in batch order. More than one batch on more than one P reconstructs on
// min(GOMAXPROCS, drainSlots) goroutines, the caller detaching and queueing up
// to drainSlots batches ahead of the one it collects — same output, batch
// boundaries and sink goroutine — and they are joined before drainLent
// returns, also when sink panics. Otherwise no goroutine starts and a batch is
// reconstructed where it is collected.
func (t *Tail) drainLent(start time.Time, users []string, sink SessionSink) {
	lanes := min(runtime.GOMAXPROCS(0), drainSlots)
	slots := make([]drainSlot, drainSlots)
	if len(users) <= drainBatchUsers || lanes == 1 {
		lanes, slots = 0, slots[:1]
	}
	work := make(chan *drainSlot, len(slots)) // every slot can be queued at once
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(work)
	for range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				s.reconstruct()
				s.done <- struct{}{}
			}
		}()
	}
	var wait time.Duration
	queued, collected, more := 0, 0, true
	for {
		for more && queued-collected < len(slots) {
			s := &slots[queued%len(slots)]
			if s.lane == nil {
				s.lane, s.done = newLane(t.cfg.Heuristic), make(chan struct{}, 1)
			}
			n := min(len(users), drainBatchUsers)
			s.streams = s.streams[:0]
			for _, u := range users[:n] {
				if st, ok := t.detachUser(u); ok {
					s.streams = append(s.streams, st)
				}
			}
			users = users[n:]
			if more = n > 0; more {
				queued++
				work <- s
			}
		}
		if collected == queued {
			break
		}
		s := &slots[collected%len(slots)]
		collected++
		waitStart := time.Now()
		if lanes > 0 {
			<-s.done
		} else {
			(<-work).reconstruct() // no goroutines: the caller is the lane
		}
		wait += time.Since(waitStart)
		deliver(sink, s.batch, true)
		s.lane.release()
		s.lane.flush()
		t.settle(len(s.batch), s.streams...)
		metricDrainUsers.Add(int64(len(s.streams)))
		s.batch = s.batch[:0]
	}
	metricDrainBatches.Add(int64(collected))
	metricDrainWaitNs.Add(int64(wait))
	metricDrainNs.Add(int64(time.Since(start)))
}

// deliver hands one batch to sink (empty batches are not delivered). A lent
// batch is dead once sink returns; in test binaries it is then overwritten
// with sentinels, so a sink that kept sessions or entry arrays without
// cloning them shows garbage in the very next comparison instead of passing
// until some later batch happens to reuse the storage.
func deliver(sink SessionSink, batch []session.Session, lent bool) {
	if len(batch) == 0 {
		return
	}
	sink(batch)
	if lent && poisonLent {
		for i := range batch {
			entries := batch[i].Entries
			for j := range entries {
				entries[j] = session.Entry{Page: webgraph.PageID(math.MinInt32)}
			}
			batch[i] = session.Session{User: "\x00lent"}
		}
	}
}

// poisonLent turns the overwrite in deliver on. It is true exactly in
// binaries built by "go test" — every package's tests and the subprocess
// children they re-execute run with it, no production binary does.
var poisonLent = testing.Testing()
