package core

import (
	"math"
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

// Drain is the streaming Flush: it finalizes everything buffered, in user
// order, in batches of drainBatchUsers users built on the lent lane and lent
// to sink one at a time under SessionSink's ownership rule, so the end of an
// input costs one batch of memory, however many users are still open. The
// batches concatenated are exactly what Flush would have returned.
func (t *Tail) Drain(sink SessionSink) {
	start := time.Now()
	users := t.openUsers()
	var batch []session.Session
	batches := 0
	for len(users) > 0 {
		n := min(len(users), drainBatchUsers)
		t.lending = true
		batch = t.closeUsers(batch[:0], users[:n])
		t.lending = false
		deliver(sink, batch, true)
		t.lent.release()
		metricDrainUsers.Add(int64(n))
		users = users[n:]
		batches++
	}
	metricDrainBatches.Add(int64(batches))
	metricDrainNs.Add(int64(time.Since(start)))
	t.syncMetrics()
}

// What a drain did: batches sunk, users closed into them, and Drain's wall
// time, pick included.
var (
	metricDrainBatches = metrics.GetCounter("core.drain.batches")
	metricDrainUsers   = metrics.GetCounter("core.drain.users")
	metricDrainNs      = metrics.GetCounter("core.drain.ns")
)

// reconstructSampleEvery is the close-timing sample rate: a lane's first
// close and every Nth after it run under the clock, and the untimed closes
// between are folded into a sampled observation by weight. At millions of
// bursts per second the histogram's cost drops to ~nothing while count stays
// exact and the estimated distribution tracks the true one.
const reconstructSampleEvery = 64

// lane is one place reconstruction runs: a lane of the Tail's heuristic
// (Reconstructor.Lend) and the sampling clock of core.tail.reconstruct.seconds,
// one series per heuristic. release ends the life of every session appended
// since the last release; a lane that is never released keeps them all. One
// goroutine at a time uses a lane.
type lane struct {
	appendTo func([]session.Session, session.Stream) []session.Session
	release  func()
	hist     *metrics.Histogram
	skip     int64   // closes left before the next timed one
	untimed  int64   // closes not yet in hist
	last     float64 // the latest timed close, seconds
}

func newLane(h heuristics.Reconstructor) *lane {
	l := &lane{hist: metrics.GetHistogram(metrics.WithLabels("core.tail.reconstruct.seconds", "heur", h.Name()))}
	l.appendTo, l.release = h.Lend()
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
