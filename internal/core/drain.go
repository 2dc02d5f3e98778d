package core

import (
	"math"
	"testing"
	"time"

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

// closing selects the users a drain closes: everyone with an open burst (the
// zero value, Flush and Drain), or with aged set those whose last request is
// more than ρ before now (Expire).
type closing struct {
	aged bool
	now  time.Time
}

// pick takes the users c selects off the expiry wheel and returns them in
// user order; the caller closes them.
func (t *Tail) pick(c closing) []string {
	if c.aged {
		return t.agedUsers(c.now)
	}
	return t.openUsers()
}

// drainTo is the one routine that closes users: Flush, Drain and Expire all
// end here. The users c selects are closed and evicted in user order, in
// batches of at most drainBatchUsers, each batch handed to sink as soon as
// it is built. With lent set the batches are lent to sink under
// SessionSink's rule and their entry storage is taken back after each
// return; without it they are built on the kept scratch and the sink — a
// collector — may keep the entry arrays.
func (t *Tail) drainTo(c closing, sink SessionSink, lent bool) {
	users := t.pick(c)
	t.lending = lent
	for len(users) > 0 {
		n := min(len(users), drainBatchUsers)
		t.drainBuf = t.closeUsers(t.drainBuf[:0], users[:n], c)
		deliver(sink, t.drainBuf, lent)
		if lent {
			t.lentRelease()
		}
		users = users[n:]
	}
	t.lending = false
	clear(t.drainBuf) // drop the last batch's references until the next drain
	t.syncMetrics()
}

// closeUsers closes and evicts the listed users in order, appending their
// sessions onto dst. The list may be stale — a ShardedTail releases the
// shard lock between picking it and closing — so a user whose burst is gone
// is skipped, and so is one c no longer selects: active again within ρ of
// c.now, that user goes back on the expiry wheel pick took them off. The
// caller syncs metrics.
func (t *Tail) closeUsers(dst []session.Session, users []string, c closing) []session.Session {
	for _, u := range users {
		b := t.buffers[u]
		if b == nil || len(b.entries) == 0 {
			continue
		}
		if c.aged && c.now.Sub(b.last) <= t.rho {
			t.wheelAdd(u, b.last)
			continue
		}
		dst = t.closeInto(dst, u, b)
		t.evict(u, b)
	}
	return dst
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

// collectInto returns the sink behind the slice-returning calls: it appends
// each batch's session headers to *out. Only for deliveries that are not
// lent — the entry arrays are shared with the batch, not copied.
func collectInto(out *[]session.Session) SessionSink {
	return func(batch []session.Session) { *out = append(*out, batch...) }
}
