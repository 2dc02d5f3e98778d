package core

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
)

// synthLogReader generates an endless-looking CLF log on the fly — nothing
// is materialized, so the reader itself is O(1) and any heap growth during
// ingestion belongs to the pipeline under test. Hosts rotate through a
// fixed pool, URIs through the graph's pages, and the clock jumps forward
// an hour every jumpEvery lines so bursts keep closing (and sessions keep
// being emitted and dropped) instead of accumulating forever — the
// streaming deployment the paper's reactive model assumes.
type synthLogReader struct {
	remaining int64 // bytes still to produce (truncated at a line boundary)
	lines     int64
	pending   []byte

	hosts     int
	uris      []string
	base      time.Time
	stamp     string // formatted timestamp, re-rendered when the clock moves
	jumpEvery int64
}

func newSynthLogReader(totalBytes int64, uris []string) *synthLogReader {
	base := time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)
	return &synthLogReader{
		remaining: totalBytes,
		hosts:     512,
		uris:      uris,
		base:      base,
		stamp:     base.Format("02/Jan/2006:15:04:05 -0700"),
		jumpEvery: 100_000,
	}
}

func (r *synthLogReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 && len(r.pending) == 0 {
		return 0, io.EOF
	}
	for len(r.pending) < len(p) && r.remaining > 0 {
		if r.lines%r.jumpEvery == 0 {
			// Advance the clock one hour per block plus one second per
			// 50 lines inside it, so per-user gaps within a block stay
			// under ρ while block boundaries exceed it.
			at := r.base.Add(time.Duration(r.lines/r.jumpEvery) * time.Hour)
			r.stamp = at.Format("02/Jan/2006:15:04:05 -0700")
		} else if r.lines%50 == 0 {
			at := r.base.Add(time.Duration(r.lines/r.jumpEvery)*time.Hour +
				time.Duration(r.lines%r.jumpEvery/50)*time.Second)
			r.stamp = at.Format("02/Jan/2006:15:04:05 -0700")
		}
		host := r.lines % int64(r.hosts)
		line := fmt.Sprintf("10.0.%d.%d - - [%s] \"GET %s HTTP/1.1\" 200 %d\n",
			host/256, host%256, r.stamp, r.uris[r.lines%int64(len(r.uris))], 100+r.lines%1000)
		r.pending = append(r.pending, line...)
		r.remaining -= int64(len(line))
		r.lines++
	}
	n := copy(p, r.pending)
	r.pending = r.pending[:copy(r.pending, r.pending[n:])]
	return n, nil
}

// memSampler records, once per chunk (from the progress callback), two
// high-waters while a pipeline runs. live is the live heap — what the latest
// GC mark found reachable (/gc/heap/live:bytes); unlike HeapAlloc it leaves
// out garbage not yet collected, so it does not follow GC pacing (HeapAlloc's
// high-water read 49 and 101 MiB on one commit). rss is the process's
// resident set (VmRSS), which also sees what no heap metric does: file pages
// mapped into the process.
type memSampler struct {
	sample1 [1]rtmetrics.Sample
	live    uint64
	rss     uint64
}

func (m *memSampler) sample() {
	m.sample1[0].Name = "/gc/heap/live:bytes"
	rtmetrics.Read(m.sample1[:])
	m.live = max(m.live, m.sample1[0].Value.Uint64())
	if rss, ok := vmRSS(); ok {
		m.rss = max(m.rss, rss)
	}
}

// progress is the sampler as an ingestion progress callback.
func (m *memSampler) progress(clf.FilePos) error {
	m.sample()
	return nil
}

// vmRSS reads the process's resident set size from /proc/self/status; false
// where there is no such file (every OS but Linux).
func vmRSS() (uint64, bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			n, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 10, 64)
			return n << 10, err == nil
		}
	}
	return 0, false
}

// memUse is what one ingestion held at most: the live heap's high-water and
// how far the resident set grew over what it was at the start.
type memUse struct {
	live, rssGrowth uint64
}

// TestStreamParallelBoundedMemory is the bounded-memory regression test: a
// multi-hundred-MiB synthetic log (generated, never materialized) streamed
// through Tail.Ingest must keep the live-heap high-water under a fixed
// budget that does not depend on the log's length — the property that
// separates streaming ingestion from reading the log into a record slice,
// which alone would dwarf the budget. Two lengths run under the same budget to pin the
// independence claim, once from a reader and once from a gzip file, whose
// decoder ring is then under the same budget. The short log also runs from a
// plain file, whose resident set must grow no more than the reader's: a file
// costs its read buffer, not its length in mapped pages, which no heap metric
// would show.
func TestStreamParallelBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-MiB ingestion")
	}
	// ~64 MiB and ~256 MiB (quartered under -race, which slows parsing an
	// order of magnitude); the budget stays fixed across lengths and far
	// below the longer log.
	short, long := int64(64<<20), int64(256<<20)
	if raceEnabled {
		short, long = 16<<20, 64<<20
	}
	// The live heap peaks near 15 MiB; the budget leaves headroom without
	// letting a regression to O(log) memory slip through — the long log is
	// twice the budget.
	const budget = 128 << 20

	g := goldenGraph()
	uris := make([]string, 0, g.NumPages())
	for _, p := range g.Pages() {
		uris = append(uris, g.Label(p))
	}

	// ingest feeds total bytes of log to st and samples once per chunk.
	run := func(total int64, ingest func(st *Tail, m *memSampler) (int, error)) memUse {
		st, err := NewTail(Config{
			Graph: g,
			// Time-gap keeps burst reconstruction linear; the test measures
			// ingestion memory, not Smart-SRA's CPU profile.
			Heuristic: heuristics.NewTimeGap(),
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Every run starts from a heap handed back to the OS, so each one's
		// resident-set growth is its own.
		debug.FreeOSMemory()
		start, _ := vmRSS()
		var m memSampler
		bad, err := ingest(st, &m)
		if err != nil {
			t.Fatal(err)
		}
		if bad != 0 {
			t.Fatalf("synthetic log produced %d malformed lines", bad)
		}
		st.Flush()
		runtime.GC() // the last chunks' survivors count too
		m.sample()
		stats := st.Stats()
		if stats.Records == 0 || stats.Sessions == 0 {
			t.Fatalf("pipeline did no work: %+v", stats)
		}
		use := memUse{live: m.live, rssGrowth: m.rss - min(m.rss, start)}
		t.Logf("total=%d MiB records=%d sessions=%d live-heap high-water=%d MiB resident-set growth=%d MiB",
			total>>20, stats.Records, stats.Sessions, use.live>>20, use.rssGrowth>>20)
		return use
	}
	// writeLog writes total bytes of the synthetic log to a file, gzipped
	// when gz is set.
	writeLog := func(name string, total int64, gz bool) string {
		path := filepath.Join(t.TempDir(), name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		var w io.Writer = f
		var zw *gzip.Writer
		if gz {
			zw, _ = gzip.NewWriterLevel(f, gzip.BestSpeed)
			w = zw
		}
		if _, err := io.Copy(w, newSynthLogReader(total, uris)); err != nil {
			t.Fatal(err)
		}
		if zw != nil {
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fromReader := func(total int64) memUse {
		return run(total, func(st *Tail, m *memSampler) (int, error) {
			return st.Ingest(newSynthLogReader(total, uris), DiscardSessions, m.progress)
		})
	}
	fromFile := func(path string, total int64) memUse {
		return run(total, func(st *Tail, m *memSampler) (int, error) {
			return st.IngestFiles([]string{path}, clf.FilePos{}, DiscardSessions, m.progress)
		})
	}
	fromGzip := func(total int64) memUse { return fromFile(writeLog("access.log.gz", total, true), total) }
	fromPlain := func(total int64) memUse { return fromFile(writeLog("access.log", total, false), total) }

	checkBudget := func(name string, total int64, use memUse) {
		if use.live > budget {
			t.Errorf("%s, %d MiB log: live-heap high-water %d MiB exceeds budget %d MiB",
				name, total>>20, use.live>>20, uint64(budget)>>20)
		}
	}
	var readerShort memUse
	for _, c := range []struct {
		name   string
		source func(int64) memUse
	}{{"reader", fromReader}, {"gzip", fromGzip}} {
		name, source := c.name, c.source
		useShort := source(short)
		useLong := source(long)
		if name == "reader" {
			readerShort = useShort
		}
		checkBudget(name, short, useShort)
		checkBudget(name, long, useLong)
		highShort, highLong := useShort.live, useLong.live
		// A 4× longer log must not move the high-water materially: that is
		// the length-independence claim itself. The slack is relative (up to
		// 2× the short run, floored at 32 MiB) — a true O(length) regression
		// shows up as ~4× growth and blows the absolute budget above anyway.
		// Skipped under -race, where the scaled-down short run ends before
		// the heap reaches its steady-state plateau and the comparison would
		// measure ramp-up, not growth.
		slack := max(highShort, 32<<20)
		if !raceEnabled && highLong > highShort+slack {
			t.Errorf("%s: live-heap high-water grew with log length: %d MiB (short) -> %d MiB (long)",
				name, highShort>>20, highLong>>20)
		}
	}

	// A plain file goes through the reader's source: its resident set may
	// grow by what the reader's did, plus a margin for the heap's own
	// run-to-run spread, and not by the file's length. Skipped where VmRSS
	// cannot be read, and under -race, whose quartered log is barely larger
	// than the margin.
	plain := fromPlain(short)
	checkBudget("plain", short, plain)
	const rssMargin = 16 << 20
	if _, ok := vmRSS(); !ok || raceEnabled {
		t.Logf("resident-set comparison skipped (VmRSS readable: %v, race: %v)", ok, raceEnabled)
	} else if plain.rssGrowth > readerShort.rssGrowth+rssMargin {
		t.Errorf("plain file, %d MiB log: resident set grew %d MiB, the reader's %d MiB (+%d MiB margin): the file's pages stay resident",
			short>>20, plain.rssGrowth>>20, readerShort.rssGrowth>>20, rssMargin>>20)
	}
}

// TestParseRingHoldsPageViews: the parser stages each record before it goes
// into the ring, so the ring holds 48-byte page views, not 168-byte records.
// A 16 MiB few-user log through Tail.Ingest keeps the live heap under 8 MiB;
// three 1 MiB chunks' worth of Record slices would be 11 MB on their own.
func TestParseRingHoldsPageViews(t *testing.T) {
	if testing.Short() {
		t.Skip("16 MiB ingestion")
	}
	const total, budget = 16 << 20, 8 << 20
	g := goldenGraph()
	uris := make([]string, 0, g.NumPages())
	for _, p := range g.Pages() {
		uris = append(uris, g.Label(p))
	}
	st, err := NewTail(Config{Graph: g, Heuristic: heuristics.NewTimeGap()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC() // what earlier tests left is garbage, not live
	var m memSampler
	// Sixteen users whose bursts close every 10,000 lines: the Tail's own
	// state stays a few hundred KiB, and what is left is the reader's.
	log := newSynthLogReader(total, uris)
	log.hosts, log.jumpEvery = 16, 10_000
	if _, err := st.Ingest(log, DiscardSessions, m.progress); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	m.sample()
	if st.Stats().Records == 0 {
		t.Fatal("the log ingested nothing")
	}
	t.Logf("live-heap high-water %.1f MiB", float64(m.live)/(1<<20))
	if m.live > budget {
		t.Errorf("live-heap high-water %d MiB over %d MiB: the parse ring holds more than page views", m.live>>20, budget>>20)
	}
}

// TestInternTableFollowsOpenUsers: the parser's intern table is retired at
// 4,096 strings, a bound set by the users a Tail holds open, not by the hosts
// a log names over its length. A 16 MiB log that walks 65,536 hosts, one to
// two thousand open at a time, keeps the live heap through Tail.Ingest under
// 6 MiB: measured 3.0 to 3.2 MiB with the 4,096-string table, 9.3 to 11.2 MiB
// with the 65,536-string one it replaced (with and without -race, -cpu 1 to 4).
func TestInternTableFollowsOpenUsers(t *testing.T) {
	if testing.Short() {
		t.Skip("16 MiB ingestion")
	}
	const total, budget = 16 << 20, 6 << 20
	g := goldenGraph()
	uris := make([]string, 0, g.NumPages())
	for _, p := range g.Pages() {
		uris = append(uris, g.Label(p))
	}
	// 256 KiB chunks: a chunk's distinct hosts, which the table holds on top
	// of its bound, are a quarter of a 1 MiB chunk's.
	st, err := NewTail(Config{Graph: g, Heuristic: heuristics.NewTimeGap(), StreamChunkBytes: 256 << 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var m memSampler
	// Each line's host is the next of 65,536 and the clock jumps an hour
	// every 1,000 lines, so the log's clock closes a block's users at the
	// next: the Tail holds 1,000 to 2,000 users while the parser sees every
	// host.
	log := newSynthLogReader(total, uris)
	log.hosts, log.jumpEvery = 1<<16, 1_000
	if _, err := st.Ingest(log, DiscardSessions, m.progress); err != nil {
		t.Fatal(err)
	}
	if log.lines < 1<<16 {
		t.Fatalf("the log named %d hosts", log.lines)
	}
	t.Logf("live-heap high-water %.1f MiB", float64(m.live)/(1<<20))
	if m.live > budget {
		t.Errorf("live-heap high-water %.1f MiB over %d MiB: the intern table holds more than the open users", float64(m.live)/(1<<20), budget>>20)
	}
}
