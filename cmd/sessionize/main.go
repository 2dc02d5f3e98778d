// Command sessionize runs the reactive data-processing pipeline on a Common
// Log Format access log: cleaning, user identification, and session
// reconstruction with a chosen heuristic (Smart-SRA by default). It prints
// one session per line plus pipeline statistics.
//
// Usage:
//
//	sessionize -topology topology.json -log access.log [-heuristic heur4]
//	           [-no-clean] [-stats-only] [-stream] [-expire-every 30s]
//	           [-sessions out.txt] [-checkpoint state.ckpt] [-checkpoint-every 5s]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// A log is read one way: each gzip member of -log inflates on a goroutine of
// its own, one parser goroutine cuts and parses line-aligned chunks, and the
// calling goroutine cleans, sessionizes and writes behind it. There is
// nothing to size and no flag that changes it (-workers is still accepted,
// and ignored, for the benchmark's command line).
//
// -stream switches to bounded-memory streaming ingestion: each parsed chunk
// goes straight into a streaming sessionizer and sessions print as they
// finalize. Memory is a few chunks plus the users of the log's last 2ρ to
// 3ρ (the session gap): the sessionizer reads time off the log, and closes a
// user once the newest record is more than 2ρ past their last request —
// one ρ the paper's burst gap, one a lateness allowance for records logged
// out of order. Memory therefore does not grow with the log's length or its
// total user count, so it suits logs far larger than RAM (or stdin pipes
// that never end: a chunk read from stdin is what one read returned, so a
// `tail -f` pipe's lines are sessionized as they arrive and the sessions
// they close are flushed to the output with them). Sessions are emitted in
// finalization order rather than batch order; for Smart-SRA and the
// time-gap heuristic the session contents are identical to batch mode. The
// users= count is of activity periods: a user closed and back counts again.
//
// -expire-every finalizes users quiet for longer than the session gap even
// while input is still flowing, so an endless pipe emits sessions
// continuously instead of holding every open burst until EOF. Each tick runs
// on the goroutine that sessionizes, between two chunks — the record boundary
// serve journals a cut at — and fires on an idle pipe too, where the parser
// goroutine is the one waiting for input; with it on, every sunk batch is
// flushed to the output. The default (0) enables a 30s tick for pipes and
// stdin and disables it for regular files, where wall-clock expiry would
// split historical sessions that batch mode merges; a negative value forces
// it off everywhere.
//
// -checkpoint makes a streaming run crash-safe: state is periodically
// snapshotted (open bursts + byte offsets, atomic CRC-protected writes),
// and a rerun of the same command restores the latest valid snapshot,
// truncates the -sessions file to the recorded offset, and resumes the log
// from where the snapshot left off — the finished session file is
// byte-identical to an uninterrupted run. It needs -stream, -sessions (a
// truncatable output file instead of stdout), and a real -log file (the
// resume offset seeks into it, so stdin won't do). A corrupt or truncated
// checkpoint is detected and the run falls back to a full replay. Periodic
// expiry composes with it: expired sessions go through the same offset
// bookkeeping, so checkpoints always describe a consistent cut.
//
// -cuts replays a live serve run that used -expire-every: serve journals
// every timed expiry as an exact record boundary into <sessions>.cuts, and
// this flag applies those expiries at the same boundaries while replaying
// the access log, so the offline output is byte-identical to the live
// session stream. It needs -stream and a real -log file, and it replaces
// wall-clock expiry entirely (combining it with -expire-every is an error).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/heuristics"
	"smartsra/internal/prof"
	"smartsra/internal/referrer"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// options collects the parsed command line.
type options struct {
	topoPath, logPath, heur string
	noClean, statsOnly      bool
	stream                  bool
	sessionGap              time.Duration
	expireEvery             time.Duration
	sessPath, ckptPath      string
	ckptEvery               time.Duration
	cutsPath                string
}

func main() {
	var o options
	// -workers is parsed and ignored. It stays because bench/offline.go:138
	// passes "-workers 0"; ROADMAP item 2 drops it with that line.
	workers := flag.String("workers", "auto", "ignored: a log is read by one parser goroutine beside the sessionizer (accepts auto or an integer)")
	flag.DurationVar(&o.expireEvery, "expire-every", 0, "finalize quiet users this often while streaming (0 = auto: 30s for pipes/stdin, off for files; <0 = off)")
	flag.StringVar(&o.topoPath, "topology", "", "topology JSON written by simgen (required)")
	flag.StringVar(&o.logPath, "log", "", "CLF access logs: comma-separated paths/globs, gzip ok (required; - for stdin)")
	flag.StringVar(&o.heur, "heuristic", "heur4", "heur1|heur2|heur3|heur4|referrer (referrer needs a combined-format log)")
	flag.BoolVar(&o.noClean, "no-clean", false, "skip the standard data-cleaning filter")
	flag.BoolVar(&o.statsOnly, "stats-only", false, "print statistics but not the sessions (cannot be combined with -sessions)")
	flag.BoolVar(&o.stream, "stream", false, "bounded-memory streaming ingestion: sessions print as they finalize, heap holds the users of the log's last 2-3 session gaps, independent of log size")
	flag.DurationVar(&o.sessionGap, "session-gap", 0, "burst gap ρ for -stream: a user quiet this long ends their burst (0 = the paper's 10m; match the serve run when replaying its log)")
	flag.StringVar(&o.sessPath, "sessions", "", "write sessions to this file instead of stdout (required by -checkpoint)")
	flag.StringVar(&o.ckptPath, "checkpoint", "", "crash-recovery checkpoint file for -stream (resume an interrupted run exactly)")
	flag.DurationVar(&o.ckptEvery, "checkpoint-every", 5*time.Second, "how often to snapshot state for -checkpoint")
	flag.StringVar(&o.cutsPath, "cuts", "", "expiry-cut journal written by serve (<sessions>.cuts): replay its timed expiries at the exact record boundaries the live run used (needs -stream and a real -log file)")
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()
	if o.topoPath == "" || o.logPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if o.statsOnly && o.sessPath != "" {
		fmt.Fprintln(os.Stderr, "sessionize: -stats-only prints no sessions, so -sessions has nothing to write; drop one of the two")
		os.Exit(2)
	}
	if *workers != "auto" {
		n, err := strconv.Atoi(*workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sessionize: -workers: want \"auto\" or an integer, got %q\n", *workers)
			os.Exit(2)
		}
		if n != 0 && n != 1 {
			fmt.Fprintf(os.Stderr, "sessionize: -workers %d has no effect: one parser goroutine reads the log\n", n)
		}
	}
	stop, err := profiles.Start()
	if err == nil {
		err = run(o)
		if serr := stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionize:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.ckptPath != "" {
		if !o.stream {
			return fmt.Errorf("-checkpoint needs -stream (batch mode has no incremental state to save)")
		}
		if o.sessPath == "" {
			return fmt.Errorf("-checkpoint needs -sessions (recovery truncates the output file, stdout can't be)")
		}
		if o.logPath == "-" {
			return fmt.Errorf("-checkpoint needs a real -log file (the resume offset seeks into it)")
		}
	}
	if o.cutsPath != "" {
		if !o.stream {
			return fmt.Errorf("-cuts needs -stream (cuts replay against the streaming sessionizer)")
		}
		if o.logPath == "-" {
			return fmt.Errorf("-cuts needs a real -log file (cut indices count records from the start of the log)")
		}
		if o.ckptPath != "" {
			return fmt.Errorf("-cuts is incompatible with -checkpoint (serve's own recovery already replays cuts from its checkpoint)")
		}
		if o.expireEvery > 0 {
			return fmt.Errorf("-cuts replaces wall-clock expiry with the journaled cut sequence; drop -expire-every")
		}
		o.expireEvery = -1 // force the wall-clock tick off; cuts are the expiry
	}
	tf, err := os.Open(o.topoPath)
	if err != nil {
		return err
	}
	g, err := webgraph.Decode(bufio.NewReader(tf))
	tf.Close()
	if err != nil {
		return err
	}

	// -log accepts "-" (stdin), a single file, a comma list, or a glob
	// ("access.log*") over plain and gzip files — the shapes a rotated
	// retention window takes. paths stays nil for stdin.
	var paths []string
	if o.logPath != "-" {
		if paths, err = clf.ResolveLogPaths(o.logPath); err != nil {
			return err
		}
	}

	if o.heur == "referrer" {
		if o.stream {
			return fmt.Errorf("-stream does not support the referrer heuristic (it chains over the full record list)")
		}
		rc, _, err := clf.OpenLogInput(o.logPath)
		if err != nil {
			return err
		}
		defer rc.Close()
		return runReferrer(g, rc, o.statsOnly, o.sessPath)
	}

	h, err := pickHeuristic(o.heur, g)
	if err != nil {
		return err
	}
	cfg := core.Config{Graph: g, Heuristic: h}
	if o.noClean {
		cfg.Filter = clf.KeepAll
	}
	if o.stream {
		expire := o.expireEvery
		if expire == 0 && mayNeverEnd(paths) {
			// Live-ish input: without periodic expiry an endless pipe would
			// buffer every user's open burst until EOF never comes.
			expire = 30 * time.Second
		}
		if expire > 0 {
			tick := time.NewTicker(expire)
			defer tick.Stop()
			cfg.ExpireTick = tick.C
		}
		var cuts []core.ExpiryCut
		if o.cutsPath != "" {
			cf, err := os.Open(o.cutsPath)
			if err != nil {
				return err
			}
			cuts, err = core.ReadCuts(cf)
			cf.Close()
			if err != nil {
				return fmt.Errorf("reading %s: %w", o.cutsPath, err)
			}
			fmt.Fprintf(os.Stderr, "sessionize: replaying %d expiry cuts from %s\n", len(cuts), o.cutsPath)
		}
		if o.ckptPath != "" {
			return runStreamCheckpointed(cfg, o.sessionGap, paths, o.sessPath, o.ckptPath, o.ckptEvery)
		}
		return runStream(cfg, o.sessionGap, paths, o.statsOnly, o.sessPath, cuts)
	}
	pipeline, err := core.NewPipeline(cfg)
	if err != nil {
		return err
	}
	in, _, err := clf.OpenLogInput(o.logPath)
	if err != nil {
		return err
	}
	defer in.Close()
	res, err := pipeline.ProcessLog(in)
	if err != nil {
		return err
	}
	if !o.statsOnly {
		if err := writeSessions(o.sessPath, res.Sessions); err != nil {
			return err
		}
	}
	if d, ok := h.(heuristics.Describer); ok {
		fmt.Fprintf(os.Stderr, "heuristic: %s — %s\n", h.Name(), d.Describe())
	}
	fmt.Fprintf(os.Stderr, "pipeline:  %s\n", res.Stats)
	return nil
}

// mayNeverEnd reports input that is not all regular files: stdin (nil paths)
// when it is a pipe or a terminal, or a named FIFO or device.
func mayNeverEnd(paths []string) bool {
	irregular := func(fi os.FileInfo, err error) bool { return err != nil || !fi.Mode().IsRegular() }
	if paths == nil {
		return irregular(os.Stdin.Stat())
	}
	for _, p := range paths {
		if irregular(os.Stat(p)) {
			return true
		}
	}
	return false
}

// runStream ingests the log through the bounded-memory streaming path: a
// Tail fed in input order by the chunk reader, writing each session the
// moment its burst closes — on a gap, or when the log's clock runs 2ρ past
// it. Heap usage is independent of log length and of the users it has seen,
// so this path handles logs larger than RAM and never-ending stdin pipes. File inputs
// (paths non-nil) are read like stdin, one read buffer at a time, with a
// decoder goroutine per gzip member; nil paths reads stdin.
// With cfg.ExpireTick set, each tick also finalizes users quiet for longer
// than the session gap, so sessions keep flowing while input does. A
// non-empty cuts sequence (from -cuts) replays serve's journaled timed
// expiries at the exact record boundaries the live run froze them at, making
// the output byte-identical to the live session stream even when the server
// ran with -expire-every.
func runStream(cfg core.Config, rho time.Duration, paths []string, statsOnly bool, sessPath string, cuts []core.ExpiryCut) (err error) {
	st, err := core.NewTail(cfg, rho)
	if err != nil {
		return err
	}
	dst := os.Stdout
	if sessPath != "" {
		dst, err = os.Create(sessPath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := dst.Close(); err == nil {
				err = cerr
			}
		}()
	}
	out := bufio.NewWriter(dst)
	emit := func(s []session.Session) {
		if statsOnly || len(s) == 0 {
			return
		}
		if err := session.WriteAll(out, s); err != nil {
			fmt.Fprintln(os.Stderr, "sessionize:", err)
			os.Exit(1)
		}
	}
	// Live input flushes every sunk batch: on stdin a chunk is what one read
	// returned, and whoever watches a live pipe's output should see its
	// sessions as its lines arrive — and an expiry tick's as it fires, not at
	// the next buffer fill.
	sink := emit
	if paths == nil || cfg.ExpireTick != nil {
		sink = func(s []session.Session) {
			emit(s)
			if err := out.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "sessionize:", err)
				os.Exit(1)
			}
		}
	}
	var malformed int
	switch {
	case paths == nil:
		malformed, err = st.Ingest(os.Stdin, sink, nil)
	case len(cuts) > 0:
		malformed, err = st.IngestFilesCuts(paths, clf.FilePos{}, 0, cuts, sink, nil)
	default:
		malformed, err = st.IngestFiles(paths, clf.FilePos{}, sink, nil)
	}
	if err != nil {
		// Sessions sunk before a read error are output like any other: write
		// them out. The read error stays the message and the exit status.
		if ferr := out.Flush(); ferr != nil {
			fmt.Fprintln(os.Stderr, "sessionize:", ferr)
		}
		return err
	}
	// End of input: the users of the log's last 2ρ are still open. The drain
	// streams them through the same sink, one batch at a time.
	st.Drain(emit)
	if err := out.Flush(); err != nil {
		return err
	}
	printStreamStats(cfg, st, malformed)
	return nil
}

// validateResume decides whether a loaded checkpoint can position a resume
// within the resolved input set, returning the start position or a non-empty
// reason to fall back to a full replay. A checkpoint written before
// multi-file support (no LogPath) is honored only against a single-file set;
// otherwise the recorded path must still sit at the recorded index, so a
// rotated or renamed set degrades to replay instead of resuming into the
// wrong file. Plain-file offsets are bounds-checked; gzip offsets count
// decoded bytes, so their validation happens when the decoder discards to
// the offset.
func validateResume(ck *checkpoint.Checkpoint, paths []string) (clf.FilePos, string) {
	if ck.LogFile < 0 || ck.LogFile >= len(paths) {
		return clf.FilePos{}, fmt.Sprintf("checkpoint file index %d outside the %d-file input set", ck.LogFile, len(paths))
	}
	target := paths[ck.LogFile]
	switch {
	case ck.LogPath == "" && len(paths) > 1:
		return clf.FilePos{}, "single-file checkpoint cannot place itself in a multi-file set"
	case ck.LogPath != "" && ck.LogPath != target:
		return clf.FilePos{}, fmt.Sprintf("checkpoint was at %s, input set now has %s there", ck.LogPath, target)
	}
	if !clf.IsGzipFile(target) {
		fi, err := os.Stat(target)
		if err != nil {
			return clf.FilePos{}, fmt.Sprintf("stat %s: %v", target, err)
		}
		if ck.LogOffset > fi.Size() {
			return clf.FilePos{}, "checkpoint is ahead of the log"
		}
	}
	return clf.FilePos{File: ck.LogFile, Offset: ck.LogOffset}, ""
}

// runStreamCheckpointed is runStream made crash-safe: it resumes from the
// latest valid checkpoint (restoring the sessionizer and truncating the
// session file to the recorded offset, so the replayed log suffix re-emits
// exactly the sessions the interruption cut off) and snapshots periodically
// at chunk boundaries while streaming — across the whole multi-file set,
// with (file index, byte offset) positions so a kill inside access.log.2.gz
// resumes there. A missing, corrupt, or stale checkpoint falls back to a
// full run from the start of the set. Expiry ticks, the writes and the
// snapshots all run on the goroutine that ingests, so every checkpoint
// records a consistent (log position, session offset, open bursts) cut even
// while expiry is emitting.
func runStreamCheckpointed(cfg core.Config, rho time.Duration, paths []string, sessPath, ckptPath string, every time.Duration) error {
	st, err := core.NewTail(cfg, rho)
	if err != nil {
		return err
	}
	ck, reason, err := checkpoint.Resume(checkpoint.OS, ckptPath)
	if err != nil {
		return err
	}
	if reason != "" {
		fmt.Fprintln(os.Stderr, "sessionize: checkpoint unusable, starting over:", reason)
	}
	sf, err := os.OpenFile(sessPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer sf.Close()
	sessInfo, err := sf.Stat()
	if err != nil {
		return err
	}

	var start clf.FilePos
	var sinkOff int64
	if ck != nil {
		pos, why := validateResume(ck, paths)
		switch {
		case why != "":
			fmt.Fprintln(os.Stderr, "sessionize: checkpoint stale, starting over:", why)
		case ck.SinkOffset > sessInfo.Size():
			fmt.Fprintln(os.Stderr, "sessionize: checkpoint is ahead of the session file, starting over")
		default:
			if err := st.Restore(ck.Tail); err != nil {
				fmt.Fprintln(os.Stderr, "sessionize: checkpoint rejected, starting over:", err)
			} else {
				start, sinkOff = pos, ck.SinkOffset
			}
		}
	}
	if err := sf.Truncate(sinkOff); err != nil {
		return err
	}
	if _, err := sf.Seek(sinkOff, io.SeekStart); err != nil {
		return err
	}
	if start.File > 0 || start.Offset > 0 {
		fmt.Fprintf(os.Stderr, "sessionize: resuming %s from byte %d (session file at %d)\n",
			paths[start.File], start.Offset, sinkOff)
	}

	w := checkpoint.NewWriter(checkpoint.OS, ckptPath, every)
	good := sinkOff
	cur := start
	var sinkErr error
	// good advances only past batches whose write succeeded.
	emit := func(s []session.Session) {
		if sinkErr != nil || len(s) == 0 {
			return
		}
		if sinkErr = session.WriteAll(sf, s); sinkErr == nil {
			good, sinkErr = sf.Seek(0, io.SeekCurrent)
		}
	}
	malformed, err := st.IngestFiles(paths, start, emit, func(pos clf.FilePos) error {
		cur = pos
		if sinkErr != nil {
			return nil
		}
		// A failed save only costs recovery granularity: the previous
		// checkpoint file stays valid (atomic rename), so keep streaming.
		if _, err := w.MaybeSave(func() (*checkpoint.Checkpoint, error) {
			if err := sf.Sync(); err != nil {
				return nil, fmt.Errorf("session file sync: %w", err)
			}
			return &checkpoint.Checkpoint{
				LogOffset: pos.Offset, LogFile: pos.File, LogPath: paths[pos.File],
				SinkOffset: good, Tail: st.Snapshot(),
			}, nil
		}); err != nil {
			fmt.Fprintln(os.Stderr, "sessionize: checkpoint:", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if sinkErr != nil {
		return sinkErr
	}
	st.Drain(emit)
	if sinkErr != nil {
		return sinkErr
	}
	if err := sf.Sync(); err != nil {
		return err
	}
	// The run is complete: record that, so a rerun replays nothing.
	if err := w.Save(&checkpoint.Checkpoint{
		LogOffset: cur.Offset, LogFile: cur.File, LogPath: paths[cur.File],
		SinkOffset: good, Tail: st.Snapshot(),
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sessionize: final checkpoint:", err)
	}
	printStreamStats(cfg, st, malformed)
	return nil
}

func printStreamStats(cfg core.Config, st *core.Tail, malformed int) {
	stats := st.Stats()
	stats.Malformed = malformed
	if d, ok := cfg.Heuristic.(heuristics.Describer); ok {
		fmt.Fprintf(os.Stderr, "heuristic: %s — %s\n", cfg.Heuristic.Name(), d.Describe())
	}
	fmt.Fprintf(os.Stderr, "pipeline:  %s (streaming)\n", stats)
}

// writeSessions writes the batch result to sessPath, or stdout when empty.
func writeSessions(sessPath string, sessions []session.Session) error {
	if sessPath == "" {
		return session.WriteAll(os.Stdout, sessions)
	}
	f, err := os.Create(sessPath)
	if err != nil {
		return err
	}
	if err := session.WriteAll(f, sessions); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runReferrer sessionizes a combined-format log by referrer chaining.
func runReferrer(g *webgraph.Graph, in io.Reader, statsOnly bool, sessPath string) error {
	records, malformed, err := clf.ReadAll(in)
	if err != nil {
		return err
	}
	cleaned, dropped := clf.Apply(records, clf.StandardCleaning())
	r := referrer.New(g)
	sessions, err := r.Reconstruct(cleaned)
	if err != nil {
		return err
	}
	if !statsOnly {
		if err := writeSessions(sessPath, sessions); err != nil {
			return err
		}
	}
	withRef := 0
	for _, rec := range cleaned {
		if rec.HasReferer() {
			withRef++
		}
	}
	fmt.Fprintf(os.Stderr, "heuristic: %s — %s\n", r.Name(), r.Describe())
	fmt.Fprintf(os.Stderr, "pipeline:  records=%d malformed=%d filtered=%d with-referer=%d sessions=%d\n",
		len(records), malformed, dropped, withRef, len(sessions))
	return nil
}

func pickHeuristic(name string, g *webgraph.Graph) (heuristics.Reconstructor, error) {
	switch name {
	case "heur1":
		return heuristics.NewTimeTotal(), nil
	case "heur2":
		return heuristics.NewTimeGap(), nil
	case "heur3":
		return heuristics.NewNavigation(g), nil
	case "heur4":
		return heuristics.NewSmartSRA(g), nil
	}
	return nil, fmt.Errorf("unknown heuristic %q (want heur1..heur4)", name)
}
