// Command evaluate regenerates the paper's evaluation: the Figure 8 (STP),
// Figure 9 (LPP), and Figure 10 (NIP) accuracy sweeps over the four session
// reconstruction heuristics, printed as text tables and optionally CSV.
//
// Usage:
//
//	evaluate -experiment stp|lpp|nip|all [-agents 10000] [-seed 1]
//	         [-pages 300] [-outdeg 15] [-csv DIR] [-session-stats] [-via-clf]
//	         [-workers N] [-progress] [-cpuprofile FILE] [-memprofile FILE]
//
// Sweep points (and -experiment defaults replicas) run concurrently on one
// bounded worker pool (-workers, default all cores) over one shared
// topology. Each point runs on one goroutine of the pool; its simulator's
// agents get -workers divided by the points running at once (at least one)
// and hand each finished user to the point's goroutine, which reconstructs
// and scores it beside the simulator and drops it, so a point holds a few
// users per simulator worker, never its population. Any worker count
// produces byte-identical output because every point is seeded
// independently. -progress reports
// per-point completion and a final metrics snapshot on stderr, leaving
// stdout byte-identical: eval.point.seconds is a point's wall time,
// eval.point.score.seconds the part its goroutine spent on the users handed
// to it (timed per user, not per entry), and eval.point.simulate.seconds the
// rest, spent waiting for the simulator's next user.
//
// A -replicas below 1, a -pages below 2 or any positional argument is a
// usage error: exit 2 before any work.
//
// How fast any of this runs is the benchmark's to say, not this command's:
// bench/ times `evaluate -experiment lpp` end to end (workload eval_sweep)
// and the ingestion layers one by one; see bench/README.md. Where the time
// goes is -cpuprofile's to say: a CPU profile of the whole run, and
// -memprofile a heap profile at its end, for go tool pprof. Neither changes
// stdout.
//
// Accuracy is reported under both readings of the paper's §5.1 metric:
// matched (one-to-one, headline) and exists (any capturer counts); see
// EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"smartsra/internal/eval"
	"smartsra/internal/metrics"
	"smartsra/internal/prof"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "stp, lpp, nip, all, or defaults (Table 5 point, replicated)")
		agents     = flag.Int("agents", 10000, "agents per sweep point (Table 5: 10000)")
		seed       = flag.Int64("seed", 1, "simulation seed")
		replicas   = flag.Int("replicas", 5, "seeds for -experiment defaults")
		pages      = flag.Int("pages", 300, "topology size")
		outdeg     = flag.Float64("outdeg", 15, "average out-degree")
		csvDir     = flag.String("csv", "", "also write <experiment>.csv files to this directory")
		svgDir     = flag.String("svg", "", "also write <experiment>.svg figures to this directory")
		stats      = flag.Bool("session-stats", false, "also print reconstructed session shapes")
		viaCLF     = flag.Bool("via-clf", false, "route requests through a full CLF encode/parse/clean pipeline")
		withRef    = flag.Bool("include-referrer", false, "also evaluate the referrer-chain upper bound (heurR)")
		workers    = flag.Int("workers", 0, "concurrent sweep points (<=0: all cores; 1: sequential)")
		progress   = flag.Bool("progress", false, "report per-point progress and a metrics snapshot on stderr")
		profiles   = prof.Register(flag.CommandLine)
	)
	flag.Parse()
	if msg := usageError(*replicas, *pages, flag.Args()); msg != "" {
		fmt.Fprintln(os.Stderr, "evaluate:", msg)
		os.Exit(2)
	}
	stop, err := profiles.Start()
	if err == nil {
		err = run(*experiment, *agents, *seed, *replicas, *pages, *outdeg, *csvDir, *svgDir,
			*stats, *viaCLF, *withRef, *workers, *progress)
		if serr := stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

// usageError says what is wrong with the command line before any work, or
// returns "". A topology needs two pages (-pages 0 would silently fall back
// to the paper's site and drop -outdeg), a replication at least one seed,
// and evaluate takes no positional arguments.
func usageError(replicas, pages int, args []string) string {
	switch {
	case replicas < 1:
		return fmt.Sprintf("-replicas %d: want at least 1", replicas)
	case pages < 2:
		return fmt.Sprintf("-pages %d: want at least 2", pages)
	case len(args) > 0:
		return fmt.Sprintf("unexpected argument %q: evaluate takes flags only", args[0])
	}
	return ""
}

func run(experiment string, agents int, seed int64, replicas int, pages int, outdeg float64,
	csvDir, svgDir string, sessionStats, viaCLF, withRef bool, workers int, progress bool) error {
	base := eval.PaperDefaults()
	base.Params.Agents = agents
	base.Params.Seed = seed
	base.Topology.Pages = pages
	base.Topology.AvgOutDegree = outdeg
	base.ViaCLF = viaCLF
	base.IncludeReferrer = withRef

	start := time.Now()
	if progress {
		defer func() {
			fmt.Fprintf(os.Stderr, "done in %s; metrics:\n", time.Since(start).Round(time.Millisecond))
			metrics.Default.Snapshot().WriteText(os.Stderr)
		}()
	}
	opts := eval.RunOptions{Workers: workers}

	if experiment == "defaults" {
		seeds := make([]int64, replicas)
		for i := range seeds {
			seeds[i] = seed + int64(i)
		}
		if progress {
			opts.Progress = progressFunc("seed")
		}
		rep, err := eval.ReplicateWith(base, seeds, opts)
		if err != nil {
			return err
		}
		fmt.Printf("Table 5 defaults, %d agents\n", agents)
		return rep.WriteTable(os.Stdout)
	}

	var experiments []eval.Experiment
	switch experiment {
	case "stp":
		experiments = []eval.Experiment{eval.Figure8(base)}
	case "lpp":
		experiments = []eval.Experiment{eval.Figure9(base)}
	case "nip":
		experiments = []eval.Experiment{eval.Figure10(base)}
	case "all":
		experiments = []eval.Experiment{eval.Figure8(base), eval.Figure9(base), eval.Figure10(base)}
	default:
		return fmt.Errorf("unknown experiment %q (want stp, lpp, nip, or all)", experiment)
	}

	for i, e := range experiments {
		if i > 0 {
			fmt.Println()
		}
		if progress {
			fmt.Fprintf(os.Stderr, "%s: sweeping %s over %d points\n", e.Name, e.Variable, len(e.Values))
			opts.Progress = progressFunc("point")
		}
		res, err := e.RunWith(opts)
		if err != nil {
			return err
		}
		if err := res.WriteTable(os.Stdout); err != nil {
			return err
		}
		shape := res.CheckShape()
		fmt.Printf("shape: smartSRA-best-everywhere=%v beats-time-everywhere=%v min-relative-margin=%+.2f decline=%v\n",
			shape.SmartSRAAlwaysBest, shape.SmartSRAAlwaysBeatsTime,
			shape.MinRelativeMargin, shape.MonotoneDecline)
		if sessionStats {
			if err := res.WriteSessionStats(os.Stdout); err != nil {
				return err
			}
		}
		if csvDir != "" {
			if err := writeArtifact(csvDir, e.Name+".csv", res.WriteCSV); err != nil {
				return err
			}
		}
		if svgDir != "" {
			if err := writeArtifact(svgDir, e.Name+".svg", res.WriteSVG); err != nil {
				return err
			}
		}
	}
	return nil
}

// progressFunc returns a stderr progress reporter for one sweep's units.
func progressFunc(unit string) func(done, total int) {
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "  %s %d/%d\n", unit, done, total)
	}
}

// writeArtifact writes one output file via fill, creating the directory.
func writeArtifact(dir, name string, fill func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
