// Command bench is the repository's one benchmark: four workloads over the
// real sessionize, serve and evaluate binaries for the end-to-end numbers,
// and a separate traced run that times calls into each package for the
// per-layer numbers. README.md is the manual; BENCHMARK.json is the
// contract it is run under.
//
//	bash bench/run.sh --workload offline_clf --seed 1 --seconds 20 --trace 0
//	cd bench && go run . -all -runs 10 -out results/set1.json,results/set2.json
//	cd bench && go run . -compare results/set1.json results/set2.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

func main() {
	launchIfAsked()
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: offline_clf, offline_noisy_gz, live_serve or eval_sweep")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "how long one run measures (default BENCHMARK.json's run_seconds, with -quick 4)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics from child processes; 1: per-layer metrics from the traced in-process run")
		quick    = flag.Bool("quick", false, "small inputs, one repeat, 4 s runs: every check, no usable numbers")
		all      = flag.Bool("all", false, "run every workload -runs times (seeds seed..seed+runs-1) plus one traced run each, and write -out; exit 2 if an output check fails")
		runs     = flag.Int("runs", 10, "end-to-end runs per workload for -all")
		out      = flag.String("out", "", "write the full result (raw samples, environment) as JSON to this file; with -all, a comma-separated list records that many sets, run by run in alternation")
		compare  = flag.Bool("compare", false, "compare two -all result files given as arguments; exit 1 if a row is worse, failures rose or an output check failed")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		root, err := findRoot()
		if err != nil {
			return fail(err)
		}
		spec, err := loadCatalogue(root)
		if err != nil {
			return fail(err)
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}

	// Interrupts cancel ctx: exec.CommandContext kills every child, and
	// the deferred cleanup below still removes the scratch directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv()
	if err != nil {
		return fail(err)
	}
	defer e.cleanup()
	if *seconds == 0 {
		*seconds = float64(e.spec.RunSeconds)
		if *quick {
			*seconds = 4
		}
	}

	if *all {
		if *out == "" {
			return fail(fmt.Errorf("-all needs -out"))
		}
		if err := runAll(ctx, e, *seed, *runs, *seconds, *quick, strings.Split(*out, ",")); err != nil {
			return fail(err)
		}
		return 0
	}

	cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Quick: *quick}
	res, err := runWorkload(ctx, e, cfg)
	if err != nil {
		return fail(err)
	}
	res.writeHuman(os.Stderr, e.spec)
	if *out != "" {
		if err := writeJSON(*out, resultFile{Env: describeEnv(e), Runs: []*runResult{res}}); err != nil {
			return fail(err)
		}
	}
	if err := res.writeDriverLine(os.Stdout, e.spec); err != nil {
		return fail(err)
	}
	return 0
}

// runWorkload dispatches one run.
func runWorkload(ctx context.Context, e *env, cfg runConfig) (*runResult, error) {
	switch cfg.Workload {
	case wOfflineCLF, wOfflineNoisy:
		return runOffline(ctx, e, cfg)
	case wLiveServe:
		return runLive(ctx, e, cfg)
	case wEvalSweep:
		return runEval(ctx, e, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s, %s or %s)",
		cfg.Workload, wOfflineCLF, wOfflineNoisy, wLiveServe, wEvalSweep)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}
