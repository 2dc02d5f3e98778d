package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"smartsra/internal/eval"
	"smartsra/internal/simulator"
)

// paperShape is the claim the sweep must reproduce: Smart-SRA is the most
// accurate heuristic at every point, beats both time heuristics everywhere,
// and accuracy declines as LPP grows.
const paperShape = "smartSRA-best-everywhere=true beats-time-everywhere=true"

// evalInput is what the benchmark knows about the sweep before running it.
type evalInput struct {
	cfg eval.RunConfig
	// real[i] is the ground-truth session count of point i; records the
	// simulated server-log records of all points together.
	real    []int
	records int
}

// evalExperiment is the sweep evaluate runs for -experiment lpp.
func evalExperiment(seed int64, agents int) eval.Experiment {
	cfg := eval.PaperDefaults()
	cfg.Params.Agents = agents
	cfg.Params.Seed = seed
	return eval.Figure9(cfg)
}

// prepareEval simulates the sweep's ten populations the way evaluate will,
// to learn the input size (the throughput denominator) and the real-session
// column the tool must print.
func prepareEval(seed int64, agents int) (*evalInput, error) {
	exp := evalExperiment(seed, agents)
	g, err := eval.Topology(exp.Base)
	if err != nil {
		return nil, err
	}
	in := &evalInput{cfg: exp.Base}
	for _, lpp := range exp.Values {
		p := exp.Base.Params
		p.LPP = lpp
		sim, err := simulator.Run(g, p)
		if err != nil {
			return nil, err
		}
		in.real = append(in.real, len(sim.Real))
		in.records += sim.Stats.ServerRequests
	}
	return in, nil
}

// runEval drives eval_sweep: `evaluate -experiment lpp`, the paper's
// Figure 9, as repeated child processes.
func runEval(ctx context.Context, e *env, cfg runConfig) (*runResult, error) {
	res, err := newResult(ctx, cfg)
	if err != nil {
		return nil, err
	}
	sc := cfg.scale()

	var in *evalInput
	if err := res.timeSetup(sc.setupReps, func(int) error {
		if err := e.buildTools(ctx); err != nil {
			return err
		}
		var err error
		in, err = prepareEval(cfg.Seed, sc.evalAgents)
		return err
	}); err != nil {
		return nil, err
	}
	realTotal := 0
	for _, n := range in.real {
		realTotal += n
	}
	res.Info["records"] = in.records
	res.Info["real_sessions"] = realTotal

	if cfg.Trace {
		if err := traceEval(res, e, in, sc); err != nil {
			return nil, err
		}
		// The traced run still makes one child run, for the output checks
		// and real_sessions_per_s.
		sc.minRuns, cfg.Seconds = 1, 0
	}

	// Every timed process runs between two yardstick readings.
	if _, err := res.yard.read(2); err != nil {
		return nil, err
	}
	var first []byte
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for n := 0; n < sc.minRuns || time.Now().Before(deadline); n++ {
		child, err := runChild(ctx, e.tool("evaluate"), "-experiment", "lpp",
			"-agents", strconv.Itoa(sc.evalAgents), "-seed", strconv.FormatInt(cfg.Seed, 10),
			"-workers", strconv.Itoa(runtime.NumCPU()))
		if err != nil {
			return nil, err
		}
		slowdown, err := res.yard.read(2)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		ok := checkEvalOutput(res, child, in, fmt.Sprintf("run %d", n))
		if ok && first != nil && !bytes.Equal(first, child.Stdout) {
			res.failCheck("run %d: accuracy table differs from the first run's", n)
			ok = false
		}
		if !ok {
			res.Failed++
			continue
		}
		if first == nil {
			first = child.Stdout
		}
		res.sampleTimes(float64(in.records), child.Wall.Seconds(), child.CPU.Seconds(), slowdown)
		res.sample("peak_rss_mib", float64(child.MaxRSS)/(1<<20))
		res.sample("real_sessions_per_s", float64(realTotal)/atRef(child.Wall.Seconds(), slowdown))
	}
	res.Info["timed_runs"] = len(res.Samples["records_per_s"])
	res.reportMedians()
	res.finish(e.spec)
	return res, nil
}

// checkEvalOutput verifies one evaluate run: clean exit, the paper's shape
// line, and a real-sessions column equal to what the simulator produces for
// the same seed.
func checkEvalOutput(res *runResult, child *childRun, in *evalInput, what string) bool {
	if child.ExitCode != 0 {
		res.failCheck("%s: evaluate exited %d: %s", what, child.ExitCode, lastLine(child.Stderr))
		return false
	}
	var real []int
	shape := ""
	for _, line := range strings.Split(string(child.Stdout), "\n") {
		if rest, ok := strings.CutPrefix(line, "shape: "); ok {
			shape = rest
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		// Table rows start with the swept percentage and end with the
		// real-session count.
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue
		}
		if n, err := strconv.Atoi(f[len(f)-1]); err == nil {
			real = append(real, n)
		}
	}
	ok := true
	if !strings.HasPrefix(shape, paperShape) || !strings.HasSuffix(shape, "decline=true") {
		res.failCheck("%s: shape line %q does not state the paper's claim", what, shape)
		ok = false
	}
	if fmt.Sprint(real) != fmt.Sprint(in.real) {
		res.failCheck("%s: real-sessions column %v, simulator gives %v", what, real, in.real)
		ok = false
	}
	return ok
}
