package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/heuristics"
	"smartsra/internal/plan"
	"smartsra/internal/prep"
	"smartsra/internal/session"
)

// Per-layer measurement over one log. Two views of the same chain:
//
//   - in situ: the benchmark drives clf.StreamFilesChunked itself on one
//     worker and records a span around each call out of it — the tail
//     (PushBatch), the sink (session.WriteAll), the checkpoint (Snapshot +
//     checkpoint.Save every checkpointEveryChunks chunks). What is left of
//     the root span is the clf layer's own time.
//   - isolated: each public call alone, over input built beforehand, the
//     median of a few repeats.
//
// "per rec" always means per input line of the log, so that layers add up
// to the end-to-end time per line.

const (
	checkpointEveryChunks = 64
	// isolatedBatch is the PushBatch size of the isolated tail runs, about
	// what a 1 MiB chunk of plain CLF holds.
	isolatedBatch = 8192
	// longLogLines is the log size above which isolated calls are repeated
	// twice, not three times.
	longLogLines = 1_500_000
	// maxTraceOverhead is the share of an untraced in-process pass that
	// tracing may add.
	maxTraceOverhead = 0.05
)

// ingestRun is one in-process pass over the log: stream → tail → sink.
type ingestRun struct {
	elapsed     time.Duration
	output      []byte
	sessions    int
	malformed   int
	checkpoints int
}

// traceOverhead is the share of a traced pass of length pass that recording
// its spans took: the span count times what one begin/end pair costs, timed
// here in a loop. Timing the traced pass against an untraced twin — the
// obvious way — cannot resolve it: two passes over the same log differ by a
// tenth to a fifth on this box, the fastest of five of each kind still by
// -0.18 to +0.10, while three spans per 1 MiB chunk cost a hundred-thousandth
// of the pass.
func traceOverhead(spans int, pass time.Duration) float64 {
	const pairs = 1 << 16
	t := newTracer()
	start := time.Now()
	for i := 0; i < pairs; i++ {
		t.end(t.begin("calibration", -1, i))
	}
	perSpan := time.Since(start) / pairs
	return float64(time.Duration(spans)*perSpan) / float64(pass)
}

// ingestInSitu runs the chain in this process. With a tracer it records the
// spans described above under parent; with nil it is the untraced twin.
func ingestInSitu(c *corpus, dir string, tr *tracer, parent int) (*ingestRun, error) {
	tail, err := core.NewTail(core.Config{Graph: c.Graph}, c.Rho)
	if err != nil {
		return nil, err
	}
	sinkPath := filepath.Join(dir, "insitu.sessions")
	f, err := os.Create(sinkPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := bufio.NewWriter(f)
	run := &ingestRun{}
	var sinkErr error
	chunk := 0
	start := time.Now()
	root := tr.begin("clf", parent, -1)
	emit := func(s []session.Session) {
		if len(s) == 0 || sinkErr != nil {
			return
		}
		id := tr.begin("session.sink", root, chunk)
		sinkErr = session.WriteAll(out, s)
		tr.end(id)
		run.sessions += len(s)
	}
	run.malformed, err = clf.StreamFilesChunked(c.LogPaths, clf.StreamConfig{Workers: 1}, func(recs []clf.Record) {
		id := tr.begin("core.tail", root, chunk)
		s := tail.PushBatch(recs)
		tr.end(id)
		emit(s)
		if chunk%checkpointEveryChunks == checkpointEveryChunks-1 && sinkErr == nil {
			id := tr.begin("checkpoint.save", root, chunk)
			sinkErr = checkpoint.Save(checkpoint.OS, filepath.Join(dir, "insitu.ckpt"),
				&checkpoint.Checkpoint{LogPath: c.LogPaths[0], Tail: tail.Snapshot()})
			tr.end(id)
			run.checkpoints++
		}
		chunk++
	}, nil)
	if err != nil {
		return nil, err
	}
	id := tr.begin("core.tail", root, chunk)
	s := tail.Flush()
	tr.end(id)
	emit(s)
	if sinkErr == nil {
		id := tr.begin("session.sink", root, chunk)
		sinkErr = out.Flush()
		tr.end(id)
	}
	tr.end(root)
	run.elapsed = time.Since(start)
	if sinkErr != nil {
		return nil, sinkErr
	}
	run.output, err = os.ReadFile(sinkPath)
	return run, err
}

// traceLog measures every log-path layer over corpus c: the in-situ trace
// with its untraced twin, then the isolated calls. ref is the expected
// session multiset (nil: computed here the naive way).
func traceLog(res *runResult, tr *tracer, parent int, dir string, c *corpus, ref [][]byte, sc scale) error {
	lines := float64(c.Counts.Lines)
	perLine := func(d time.Duration) float64 { return float64(d) / lines }
	// A repeat over the 2 M-line log costs a traced run 24 s, and the contract
	// gives a run 180 s on a box that is at times 1.6x slower than at others.
	reps := sc.isolatedReps
	if c.Counts.Lines > longLogLines {
		reps = min(reps, 2)
	}

	// In situ: one traced pass over the whole log is the trace.
	spansBefore := len(tr.spans)
	first, err := ingestInSitu(c, dir, tr, parent)
	if err != nil {
		return err
	}
	passSpans := len(tr.spans) - spansBefore
	// Its untraced twin, once: what the two differ by is the box, not the
	// tracing (see traceOverhead), so the pair is noted, not reported.
	twin, err := ingestInSitu(c, dir, nil, -1)
	if err != nil {
		return err
	}
	res.Info["insitu_traced_s"] = first.elapsed.Seconds()
	res.Info["insitu_untraced_s"] = twin.elapsed.Seconds()
	if ref == nil {
		var err error
		if ref, err = referenceSessions(c); err != nil {
			return err
		}
	}
	if got := sortedLines(first.output); !equalLines(got, ref) {
		res.failCheck("in-situ pipeline's sessions differ from the naive reference (%d vs %d lines)", len(got), len(ref))
	}
	if first.malformed != c.Counts.Malformed {
		res.failCheck("in-situ pipeline counted %d malformed lines, the log holds %d", first.malformed, c.Counts.Malformed)
	}
	self := tr.selfTimes()
	var rootDur time.Duration
	for _, s := range tr.spans {
		if s.Name == "clf" && s.Parent == parent {
			rootDur = time.Duration(s.End - s.Start)
		}
	}
	chain := self["clf"] + self["core.tail"] + self["session.sink"]
	sum := chain + self["checkpoint.save"]
	res.Metrics["clf.insitu_ns_per_rec"] = perLine(self["clf"])
	res.Metrics["core.tail_insitu_ns_per_rec"] = perLine(self["core.tail"])
	res.Metrics["session.sink_ns_per_session"] = float64(self["session.sink"]) / float64(max(first.sessions, 1))
	res.Metrics["bench.insitu_sum_ratio"] = float64(sum) / float64(rootDur)
	overhead := traceOverhead(passSpans, rootDur)
	res.Metrics["bench.trace_overhead_share"] = overhead
	if overhead > maxTraceOverhead {
		res.failCheck("tracing overhead %.4f of the in-situ pass, want at most %.2f", overhead, maxTraceOverhead)
	}
	if r := res.Metrics["bench.insitu_sum_ratio"]; r < 0.98 || r > 1.02 {
		res.failCheck("in-situ self times add up to %.3f of the root span, want 1 ± 0.02", r)
	}
	res.Info["insitu_chunk_spans"] = passSpans
	res.Info["insitu_checkpoints"] = first.checkpoints

	// Isolated: build the inputs once. A call that fails (a file vanished,
	// the disk filled) is noted and reported after the rest has run.
	in, err := loadLog(c)
	if err != nil {
		return err
	}
	var probeErr error
	note := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	// repeat runs one timed call reps times under an isolated.<name> span
	// and returns the median of the durations it reports.
	repeat := func(name string, once func() time.Duration) time.Duration {
		id := tr.begin("isolated."+name, parent, -1)
		defer tr.end(id)
		ds := make([]float64, reps)
		for i := range ds {
			ds[i] = float64(once())
		}
		return time.Duration(median(ds))
	}
	timed := func(name string, f func()) time.Duration {
		return repeat(name, func() time.Duration {
			start := time.Now()
			f()
			return time.Since(start)
		})
	}
	// timedCost is timed with the allocator's and collector's cost of the
	// last repeat; the forced collections around f are outside its time.
	timedCost := func(name string, f func()) (time.Duration, cost) {
		var c cost
		d := repeat(name, func() time.Duration {
			c = measure(f)
			return c.dur
		})
		return d, c
	}

	decode := timed("clf.decode", func() {
		for _, p := range c.LogPaths {
			rc, err := clf.OpenDecoded(p)
			if err != nil {
				note(err)
				return
			}
			_, err = io.Copy(io.Discard, rc)
			note(err)
			rc.Close()
		}
	})
	res.Metrics["clf.decode_ns_per_rec"] = perLine(decode)

	parse, parseCost := timedCost("clf.parse", func() {
		for _, l := range in.lines {
			clf.ParseAnyRecordBytes(l)
		}
	})
	res.Metrics["clf.parse_ns_per_rec"] = perLine(parse)
	res.Metrics["clf.parse_allocs_per_rec"] = parseCost.allocs / lines
	in.lines = nil // only the parse call needs them; half the heap

	stream := func(noMmap bool) func() {
		return func() {
			_, err := clf.StreamFilesChunked(c.LogPaths, clf.StreamConfig{Workers: 1, NoMmap: noMmap}, func([]clf.Record) {}, nil)
			note(err)
		}
	}
	streamDur := timed("clf.stream", stream(false))
	res.Metrics["clf.stream_ns_per_rec"] = perLine(streamDur)
	res.Metrics["clf.stream_nommap_ns_per_rec"] = perLine(timed("clf.stream_nommap", stream(true)))
	res.Metrics["clf.source_split_ns_per_rec"] = perLine(streamDur - parse)

	keep := clf.StandardCleaning()
	dropped := 0
	res.Metrics["clf.filter_ns_per_rec"] = perLine(timed("clf.filter", func() {
		dropped = 0
		for i := range in.records {
			if !keep(in.records[i]) {
				dropped++
			}
		}
	}))
	res.Metrics["clf.filter_drop_share"] = float64(dropped) / float64(max(len(in.records), 1))
	res.Metrics["clf.malformed_share"] = float64(c.Counts.Malformed) / lines

	// The tail, batch-fed as ingestion feeds it.
	var usersPeak, bufferedPeak int
	pushAll := func(p interface {
		PushBatch([]clf.Record) []session.Session
		Flush() []session.Session
	}, observe func()) int {
		n := 0
		for i := 0; i < len(in.records); i += isolatedBatch {
			n += len(p.PushBatch(in.records[i:min(i+isolatedBatch, len(in.records))]))
			if observe != nil {
				observe()
			}
		}
		return n + len(p.Flush())
	}
	sessions := 0
	tailDur, tailCost := timedCost("core.tail", func() {
		t := mustTail(c, nil)
		sessions = pushAll(t, func() {
			usersPeak, bufferedPeak = max(usersPeak, t.ActiveUsers()), max(bufferedPeak, t.Buffered())
		})
	})
	res.Metrics["core.tail_ns_per_rec"] = perLine(tailDur)
	res.Metrics["core.tail_allocs_per_rec"] = tailCost.allocs / lines
	res.Metrics["core.tail_bytes_per_rec"] = tailCost.bytes / lines
	res.Metrics["core.tail_gc_cpu_share"] = tailCost.gcShare
	res.Metrics["core.active_users_peak"] = float64(usersPeak)
	res.Metrics["core.buffered_entries_peak"] = float64(bufferedPeak)
	res.Metrics["heuristics.sessions_per_rec"] = float64(sessions) / lines

	burstDur := timed("core.tail_burst", func() { pushAll(mustTail(c, heuristics.NewTimeGap()), nil) })
	res.Metrics["core.tail_burst_ns_per_rec"] = perLine(burstDur)
	res.Metrics["heuristics.phase2_ns_per_rec"] = perLine(tailDur - burstDur)

	res.Metrics["core.sharded2_ns_per_rec"] = perLine(timed("core.sharded2", func() {
		st, err := core.NewShardedTail(core.Config{Graph: c.Graph}, c.Rho, 2)
		if err != nil {
			note(err)
			return
		}
		pushAll(st, nil)
	}))
	res.Metrics["core.push1_ns_per_rec"] = perLine(timed("core.push1", func() {
		t := mustTail(c, nil)
		for i := range in.records {
			t.Push(in.records[i])
		}
		t.Flush()
	}))
	res.Metrics["core.ingest_ns_per_rec"] = perLine(timed("core.ingest", func() {
		t := mustTail(c, nil)
		_, err := t.IngestFiles(c.LogPaths, clf.FilePos{}, core.DiscardSessions, nil)
		note(err)
		t.Flush()
	}))

	// State-dependent calls, at the state the tail is in half way through.
	mid := mustTail(c, nil)
	half := in.records[:len(in.records)/2]
	for i := 0; i < len(half); i += isolatedBatch {
		mid.PushBatch(half[i:min(i+isolatedBatch, len(half))])
	}
	var snap core.TailSnapshot
	res.Metrics["core.snapshot_ms"] = ms(timed("core.snapshot", func() { snap = mid.Snapshot() }))
	res.Metrics["core.snapshot_users"] = float64(len(snap.Users))
	ckptPath := filepath.Join(dir, "isolated.ckpt")
	res.Metrics["checkpoint.save_ms"] = ms(timed("checkpoint.save", func() {
		note(checkpoint.Save(checkpoint.OS, ckptPath, &checkpoint.Checkpoint{Tail: snap}))
	}))
	if fi, err := os.Stat(ckptPath); err == nil {
		res.Metrics["checkpoint.bytes"] = float64(fi.Size())
	}
	var loaded *checkpoint.Checkpoint
	res.Metrics["checkpoint.load_ms"] = ms(timed("checkpoint.load", func() {
		var err error
		loaded, err = checkpoint.Load(checkpoint.OS, ckptPath)
		note(err)
	}))
	if probeErr != nil {
		return probeErr
	}
	res.Metrics["core.restore_ms"] = ms(timed("core.restore", func() {
		note(mustTail(c, nil).Restore(loaded.Tail))
	}))
	// Expire mutates, so it is timed once, last: a sweep at the log time
	// the state was taken at.
	if len(half) > 0 {
		id := tr.begin("isolated.core.expire", parent, -1)
		start := time.Now()
		mid.Expire(half[len(half)-1].Time)
		res.Metrics["core.expire_ms"] = ms(time.Since(start))
		tr.end(id)
	}

	// The batch entry the evaluation harness uses.
	var streams []session.Stream
	res.Metrics["prep.build_streams_ns_per_rec"] = perLine(timed("prep.build_streams", func() {
		var err error
		streams, _, err = prep.BuildStreams(in.records, prep.GraphResolver(c.Graph), prep.Options{Filter: keep})
		note(err)
	}))
	var batch []session.Session
	sraDur, sraCost := timedCost("heuristics.smartsra", func() {
		batch = heuristics.ReconstructAll(heuristics.NewSmartSRA(c.Graph), streams)
	})
	res.Metrics["heuristics.smartsra_ns_per_rec"] = perLine(sraDur)
	res.Metrics["heuristics.smartsra_allocs_per_rec"] = sraCost.allocs / lines
	for _, h := range []heuristics.Reconstructor{
		heuristics.NewTimeTotal(), heuristics.NewTimeGap(), heuristics.NewNavigation(c.Graph),
	} {
		res.Metrics["heuristics."+h.Name()+"_ns_per_rec"] = perLine(timed("heuristics."+h.Name(), func() {
			heuristics.ReconstructAll(h, streams)
		}))
	}
	encode := timed("session.encode", func() { note(session.WriteAll(io.Discard, batch)) })
	res.Metrics["session.encode_ns_per_session"] = float64(encode) / float64(max(len(batch), 1))

	res.Metrics["plan.resolve_ms"] = ms(timed("plan.resolve", func() {
		plan.Resolve(plan.StatPaths(c.LogPaths), plan.Auto, plan.Auto, plan.Auto, plan.Auto, plan.SamplePaths(c.LogPaths))
	}))

	// Σ isolated layers against the same layers' in-situ self times. The
	// chain's checkpoints are left out on both sides: their fsync takes 230 to
	// 610 ms for the same 10 MB here. The stated tolerance is ±15 %: isolated
	// calls run with warmer caches and without each other's garbage.
	isolated := streamDur + tailDur + time.Duration(res.Metrics["session.encode_ns_per_session"]*float64(first.sessions))
	res.Metrics["bench.isolated_sum_ratio"] = float64(isolated) / float64(chain)
	return probeErr
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mustTail(c *corpus, h heuristics.Reconstructor) *core.Tail {
	t, err := core.NewTail(core.Config{Graph: c.Graph, Heuristic: h}, c.Rho)
	if err != nil {
		panic(fmt.Sprintf("bench: NewTail on a generated topology: %v", err))
	}
	return t
}

// logInput is the log held in memory for the isolated calls.
type logInput struct {
	lines   [][]byte
	records []clf.Record
}

// loadLog decodes, splits and parses the corpus once.
func loadLog(c *corpus) (*logInput, error) {
	in := &logInput{}
	for _, p := range c.LogPaths {
		rc, err := clf.OpenDecoded(p)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		for len(data) > 0 {
			i := bytes.IndexByte(data, '\n')
			if i < 0 {
				i = len(data) - 1
			}
			in.lines = append(in.lines, data[:i])
			data = data[i+1:]
		}
	}
	in.records = make([]clf.Record, 0, len(in.lines))
	for _, l := range in.lines {
		if len(l) > 1<<20 {
			continue // past the scanner's line cap: never parsed
		}
		if rec, _, err := clf.ParseAnyRecordBytes(l); err == nil {
			in.records = append(in.records, rec)
		}
	}
	return in, nil
}

// cost is what one call cost the clock, the allocator and the collector.
type cost struct {
	dur           time.Duration
	allocs, bytes float64
	// gcShare is GC CPU seconds over GC + user CPU seconds during the
	// call, from runtime/metrics.
	gcShare float64
}

func measure(f func()) cost {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	// The CPU classes are brought up to date at the end of a GC cycle.
	runtime.GC()
	metrics.Read(samples)
	gc0, user0 := samples[0].Value.Float64(), samples[1].Value.Float64()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	metrics.Read(samples)
	gc, user := samples[0].Value.Float64()-gc0, samples[1].Value.Float64()-user0
	c := cost{dur: dur, allocs: float64(m1.Mallocs - m0.Mallocs), bytes: float64(m1.TotalAlloc - m0.TotalAlloc)}
	if gc+user > 0 {
		c.gcShare = gc / (gc + user)
	}
	return c
}
