package smartsra

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/metrics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// ingestWorkload renders one Table 5-scale simulated run as a CLF log.
func ingestWorkload(b *testing.B) (*webgraph.Graph, []clf.Record, []byte) {
	b.Helper()
	params := simulator.PaperParams()
	params.Agents = 500
	g, res := benchWorkload(b, webgraph.PaperTopology(), params)
	records := res.Log(g)
	var buf bytes.Buffer
	if err := clf.WriteAll(&buf, records); err != nil {
		b.Fatal(err)
	}
	return g, records, buf.Bytes()
}

// BenchmarkIngest measures the streaming ingestion layer: CLF parse
// throughput (legacy per-line-string path, []byte fast path, the chunk reader
// collected into a slice as ReadLog does) and Tail sessionization, record
// by record and in batches. The records/s metric is the headline; allocs/op
// shows the parse path's allocation reduction. Output identity is pinned by
// TestReadAllParallelMatchesReadAll and TestGoldenCorpusBatchSizes.
func BenchmarkIngest(b *testing.B) {
	g, records, data := ingestWorkload(b)
	recs := float64(len(records))

	b.Run("parse-string", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			sc := bufio.NewScanner(bytes.NewReader(data))
			sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
			for sc.Scan() {
				line := sc.Text()
				if len(line) > 0 {
					clf.ParseAnyRecord(line)
				}
			}
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("parse-bytes", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, _, err := clf.ReadAll(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("parse-chunked", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var all []clf.Record
			if _, err := clf.StreamChunked(bytes.NewReader(data), clf.StreamConfig{},
				func(recs []clf.Record) { all = append(all, recs...) }, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})

	b.Run("tail", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tl, err := core.NewTail(core.Config{Graph: g}, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, rec := range records {
				tl.Push(rec)
			}
			tl.Flush()
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("tail-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tl, err := core.NewTail(core.Config{Graph: g}, 0)
			if err != nil {
				b.Fatal(err)
			}
			for off := 0; off < len(records); off += 8192 {
				end := off + 8192
				if end > len(records) {
					end = len(records)
				}
				tl.PushBatch(records[off:end])
			}
			tl.Flush()
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}

// BenchmarkTailPush is the sessionizer hot path record-at-a-time: the
// baseline BenchmarkTailPushBatch is read against (bench/ reports the same
// pair as core.push1_ns_per_rec and core.tail_ns_per_rec).
func BenchmarkTailPush(b *testing.B) {
	g, records, _ := ingestWorkload(b)
	recs := float64(len(records))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl, err := core.NewTail(core.Config{Graph: g}, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range records {
			tl.Push(rec)
		}
		tl.Flush()
	}
	b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkTailPushBatch is the same workload through the batched hot path:
// one metrics flush per 8192-record batch, on one shard and on four.
func BenchmarkTailPushBatch(b *testing.B) {
	g, records, _ := ingestWorkload(b)
	recs := float64(len(records))
	const batch = 8192
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := core.NewShardedTail(core.Config{Graph: g}, 0, shards)
				if err != nil {
					b.Fatal(err)
				}
				for off := 0; off < len(records); off += batch {
					end := off + batch
					if end > len(records) {
						end = len(records)
					}
					st.PushBatch(records[off:end])
				}
				st.Flush()
			}
			b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// perSession runs body b.N times and reports its cost per session:
// ns/session, and allocs/session and B/session from the runtime's own
// counters (b.ReportAllocs' figures are per op, which here is a whole batch
// or drain). Each iteration's setup runs outside both the clock and the
// allocation counters; body returns how many sessions it handled.
func perSession[T any](b *testing.B, setup func() T, body func(T) int) {
	b.Helper()
	var before, after runtime.MemStats
	var sessions int
	var mallocs, bytes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in := setup()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		sessions += body(in)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	n := float64(max(sessions, 1))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/session")
	b.ReportMetric(float64(mallocs)/n, "allocs/session")
	b.ReportMetric(float64(bytes)/n, "B/session")
}

// BenchmarkWriteAll is the encode + sink layer on its own: the text
// encoding of one whole reconstruction, the call every sink in the tree
// makes per finalized batch.
func BenchmarkWriteAll(b *testing.B) {
	g, records, _ := ingestWorkload(b)
	tl, err := core.NewTail(core.Config{Graph: g}, 0)
	if err != nil {
		b.Fatal(err)
	}
	sessions := append(tl.PushBatch(records), tl.Flush()...)
	perSession(b, func() []session.Session { return sessions }, func(s []session.Session) int {
		if err := session.WriteAll(io.Discard, s); err != nil {
			b.Fatal(err)
		}
		return len(s)
	})
}

// BenchmarkTailDrain is a drain of many open users on its own, in its two
// forms: Drain lends bounded batches to a sink (here one that only counts),
// Flush materializes the same sessions for the caller to keep. At the end of
// a file the log's clock has already closed all but the last 2ρ of users, so
// the Tail here is restored with every user of 4,000 agents open, as a
// checkpoint could hold them: 16 drain batches. A test binary also overwrites
// every lent batch after the sink returns (see core.SessionSink); that pass
// is part of Drain's time here and allocates nothing.
func BenchmarkTailDrain(b *testing.B) {
	params := simulator.PaperParams()
	params.Agents = 4000
	g, res := benchWorkload(b, webgraph.PaperTopology(), params)
	var snap core.TailSnapshot
	index := map[string]int{}
	for _, r := range res.Log(g) {
		page, ok := g.PageByURI(r.URI)
		if !ok {
			continue
		}
		i, seen := index[r.Host]
		if !seen {
			i, index[r.Host] = len(snap.Users), len(snap.Users)
			snap.Users = append(snap.Users, core.UserState{User: r.Host})
		}
		u := &snap.Users[i]
		u.Entries = append(u.Entries, session.Entry{Page: page, Time: r.Time})
		if r.Time.After(u.Last) {
			u.Last = r.Time
		}
	}
	slices.SortFunc(snap.Users, func(x, y core.UserState) int { return strings.Compare(x.User, y.User) })
	snap.Stats.Users = len(snap.Users)
	filled := func() *core.Tail {
		tl, err := core.NewTail(core.Config{Graph: g}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := tl.Restore(snap); err != nil {
			b.Fatal(err)
		}
		return tl
	}
	b.Run("drain", func(b *testing.B) {
		perSession(b, filled, func(tl *core.Tail) int {
			n := 0
			tl.Drain(func(batch []session.Session) { n += len(batch) })
			return n
		})
	})
	b.Run("flush", func(b *testing.B) {
		perSession(b, filled, func(tl *core.Tail) int { return len(tl.Flush()) })
	})
}

// BenchmarkStreamGzip is the gzip ingest stage: a rotated set of four gzip
// members (≈ 8 MiB decoded each) through clf.StreamFilesChunked, so each
// member inflates on its decoder goroutine beside the parser goroutine,
// beside a no-op emit. Per
// line: ns, and B and allocs from the runtime's own counters (the rings are
// per member and per stream, so both stay flat as members grow), plus which
// side of each boundary waited — wait-ns is the parser blocked on the
// decoder, stall-ns the decoder blocked on a free ring buffer; parse-wait-ns
// the emitting side blocked on the parser, parse-stall-ns the parser blocked
// on a free record slice (the emit is empty, so next to nothing on two Ps).
func BenchmarkStreamGzip(b *testing.B) {
	_, _, data := ingestWorkload(b)
	dir := b.TempDir()
	var paths []string
	for m := 0; m < 4; m++ {
		path := filepath.Join(dir, fmt.Sprintf("access.%d.gz", m))
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		gz, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
		for n := 0; n < 8<<20; n += len(data) {
			if _, err := gz.Write(data); err != nil {
				b.Fatal(err)
			}
		}
		if err := gz.Close(); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, path)
	}
	wait, stall := metrics.GetCounter("clf.decode.wait_ns"), metrics.GetCounter("clf.decode.stall_ns")
	wait0, stall0 := wait.Value(), stall.Value()
	pwait, pstall := metrics.GetCounter("clf.parse.wait_ns"), metrics.GetCounter("clf.parse.stall_ns")
	pwait0, pstall0 := pwait.Value(), pstall.Value()
	var before, after runtime.MemStats
	lines := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bad, err := clf.StreamFilesChunked(paths, clf.StreamConfig{},
			func(recs []clf.Record) { lines += len(recs) }, nil)
		if err != nil {
			b.Fatal(err)
		}
		lines += bad
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(max(lines, 1))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/line")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/line")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/line")
	b.ReportMetric(float64(wait.Value()-wait0)/n, "wait-ns/line")
	b.ReportMetric(float64(stall.Value()-stall0)/n, "stall-ns/line")
	b.ReportMetric(float64(pwait.Value()-pwait0)/n, "parse-wait-ns/line")
	b.ReportMetric(float64(pstall.Value()-pstall0)/n, "parse-stall-ns/line")
}
