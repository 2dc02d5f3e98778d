// Command sessionize runs the reactive data-processing pipeline on a Common
// Log Format access log: cleaning, user identification, and session
// reconstruction with a chosen heuristic (Smart-SRA by default). It prints
// one session per line plus pipeline statistics.
//
// Usage:
//
//	sessionize -topology topology.json -log access.log [-heuristic heur4]
//	           [-stream] [-session-gap 10m] [-sessions out.txt]
//	           [-checkpoint state.ckpt] [-checkpoint-every 5s] [-cuts FILE]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// Records pass the standard cleaning (clf.StandardCleaning) before users are
// identified. Statistics go to stderr, so -sessions /dev/null prints them
// alone.
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
// Only the log closes a user — their own next request more than ρ later, any
// record more than 2ρ past their last, or the end of the input — never the
// wall clock, so the output is a function of the input bytes whether they
// come from files, a redirect or a pipe, however the pipe pauses. A quiet
// user's last session on a `tail -f` pipe therefore waits for the log's clock
// or for EOF; serve -sessions is the live tool, which expires on its own
// timer and journals each cut it makes.
//
// -checkpoint makes a streaming run crash-safe: state is periodically
// snapshotted (open bursts + byte offsets, atomic CRC-protected writes),
// and a rerun of the same command restores the latest valid snapshot,
// truncates the -sessions file to the recorded offset, and resumes the log
// from where the snapshot left off — the finished session file is
// byte-identical to an uninterrupted run. It needs -stream, -sessions (a
// truncatable output file instead of stdout), and a real -log file (the
// resume offset seeks into it, so stdin won't do). A corrupt or truncated
// checkpoint is detected and the run falls back to a full replay.
//
// -cuts replays a live serve run that used -expire-every: serve journals
// every timed expiry as an exact record boundary into <sessions>.cuts, and
// this flag applies those expiries at the same boundaries while replaying
// the access log, so the offline output is byte-identical to the live
// session stream. It needs -stream and a real -log file.
package main

import (
	"bufio"
	"flag"
	"fmt"
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
	stream                  bool
	sessionGap              time.Duration
	sessPath, ckptPath      string
	ckptEvery               time.Duration
	cutsPath                string
}

func main() {
	var o options
	// -workers is parsed and ignored. It stays because bench/offline.go:138
	// passes "-workers 0"; ROADMAP item 2 drops it with that line.
	workers := flag.String("workers", "auto", "ignored: a log is read by one parser goroutine beside the sessionizer (accepts auto or an integer)")
	flag.StringVar(&o.topoPath, "topology", "", "topology JSON written by simgen (required)")
	flag.StringVar(&o.logPath, "log", "", "CLF access logs: comma-separated paths/globs, gzip ok (required; - for stdin)")
	flag.StringVar(&o.heur, "heuristic", "heur4", "heur1|heur2|heur3|heur4|referrer (referrer needs a combined-format log)")
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
	// retention window takes. paths is nil for stdin.
	paths, err := clf.ResolveLogPaths(o.logPath)
	if err != nil {
		return err
	}

	if o.heur == "referrer" {
		if o.stream {
			return fmt.Errorf("-stream does not support the referrer heuristic (it chains over the full record list)")
		}
		return runReferrer(g, paths, o)
	}

	h, err := heuristics.ByName(o.heur, g)
	if err != nil {
		return err
	}
	cfg := core.Config{Graph: g, Heuristic: h}
	if o.stream {
		return runStream(cfg, o, paths)
	}
	pipeline, err := core.NewPipeline(cfg)
	if err != nil {
		return err
	}
	res, err := pipeline.ProcessLog(paths, os.Stdin)
	if err != nil {
		return err
	}
	if err := writeSessions(o, res.Sessions); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "heuristic: %s — %s\n", h.Name(), h.Describe())
	fmt.Fprintf(os.Stderr, "pipeline:  %s\n", res.Stats)
	return nil
}

// runStream is the one streaming run (checkpoint.Run, which serve's owner
// runs too): a Tail fed in input order by the chunk reader, writing each
// session the moment its burst closes — on a gap, or when the log's clock
// runs 2ρ past it — and the rest at the end of the input. Heap usage is
// independent of log length and of the users it has seen, so this path
// handles logs larger than RAM and never-ending stdin pipes. File inputs
// (paths non-nil) are read like stdin, one read buffer at a time, with a
// decoder goroutine per gzip member; nil paths reads stdin. Nothing but the
// input decides where a session ends: a -cuts journal replays serve's
// journaled timed expiries at the exact record boundaries the live run froze
// them at, making the output byte-identical to the live session stream even
// when the server ran with -expire-every.
//
// Sessions go to stdout, to the -sessions file, or with -checkpoint to that
// file resumed from the latest usable checkpoint, and the run checkpoints at
// chunk boundaries across the whole multi-file set, with (file index, byte
// offset) positions so a kill inside access.log.2.gz resumes there. Every
// sunk batch is written at once, so a live pipe's sessions are on the output
// as its lines arrive. The writes and the snapshots run on the goroutine that
// ingests, so every checkpoint records a consistent (log position, session
// offset, open bursts) cut.
// The first failed session write is the run's error: nothing is written
// after it, no checkpoint is saved, and ingestion stops at the next chunk
// boundary.
func runStream(cfg core.Config, o options, paths []string) (err error) {
	st, err := core.NewTail(cfg, o.sessionGap)
	if err != nil {
		return err
	}
	run := &checkpoint.Run{Tail: st, Paths: paths, Notices: os.Stderr, Name: "sessionize"}
	if o.cutsPath != "" {
		if run.Journal, err = os.Open(o.cutsPath); err != nil {
			return err
		}
		defer run.Journal.Close()
	}
	if run.Out, err = output(o); err != nil {
		return err
	}
	defer closeOutput(o, run.Out, &err)
	if o.ckptPath != "" {
		run.Ckpt = checkpoint.NewWriter(checkpoint.OS, o.ckptPath, o.ckptEvery)
	}
	if err := run.Recover(); err != nil {
		return err
	}
	// Sessions sunk before a read error are output like any other; the read
	// error stays the message and the exit status.
	if err := run.Ingest(os.Stdin); err != nil {
		return err
	}
	if err := run.Finish(); err != nil {
		return err
	}
	if run.Ckpt != nil {
		// The run is complete: record that, so a rerun replays nothing.
		if err := run.Save(); err != nil {
			fmt.Fprintln(os.Stderr, "sessionize: final checkpoint:", err)
		}
	}
	fmt.Fprintf(os.Stderr, "heuristic: %s — %s\n", cfg.Heuristic.Name(), cfg.Heuristic.Describe())
	fmt.Fprintf(os.Stderr, "pipeline:  %s (streaming)\n", st.Stats())
	return nil
}

// output opens where sessions go: stdout, a new -sessions file, or with
// -checkpoint that file as it stands, for the run to cut back.
func output(o options) (*checkpoint.Sink, error) {
	switch {
	case o.sessPath == "":
		return &checkpoint.Sink{F: os.Stdout, W: os.Stdout}, nil
	case o.ckptPath != "":
		return checkpoint.OpenSink(o.sessPath)
	}
	// Write-only, unlike os.Create: opened read-write, a pipe such as
	// /dev/stdout has this process as a reader too, and a write after the
	// real reader left blocks forever instead of failing with EPIPE.
	f, err := os.OpenFile(o.sessPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	return &checkpoint.Sink{F: f, W: f}, err
}

// closeOutput closes a -sessions file; its error is the run's if the run had
// none.
func closeOutput(o options, out *checkpoint.Sink, err *error) {
	if o.sessPath != "" {
		if cerr := out.F.Close(); *err == nil {
			*err = cerr
		}
	}
}

// writeSessions writes a batch result where output says.
func writeSessions(o options, sessions []session.Session) (err error) {
	out, err := output(o)
	if err != nil {
		return err
	}
	defer closeOutput(o, out, &err)
	return out.WriteBatch(sessions)
}

// runReferrer sessionizes a combined-format log by referrer chaining.
func runReferrer(g *webgraph.Graph, paths []string, o options) error {
	records, malformed, err := clf.ReadLog(paths, os.Stdin)
	if err != nil {
		return err
	}
	cleaned, dropped := clf.Apply(records, clf.StandardCleaning())
	r := referrer.New(g)
	sessions, err := r.Reconstruct(cleaned)
	if err != nil {
		return err
	}
	if err := writeSessions(o, sessions); err != nil {
		return err
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
