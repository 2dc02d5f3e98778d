// Command loadgen replays simulated users against a running serve instance
// in real time and reports the latency distribution and shed rate. It reuses
// the agent model from internal/simulator, so the traffic a serve under test
// receives is the same traffic the offline pipeline is evaluated on: a fixed
// seed makes the request schedule reproducible run to run.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 -topo topology.json \
//	        [-agents 500] [-seed 1] [-speedup 60] [-workers 8] [-chaos]
//
// The schedule is the paper's Table 5 agents (simulator.PaperParams) with
// their starts spread over one simulated hour; each request times out after
// 10 s.
//
// -speedup compresses simulated time (60 means one simulated minute per real
// second); 0 disables pacing and issues requests as fast as the workers can,
// which is the overload configuration. Shed responses are data, not failure.
//
// -chaos runs the adversarial suite (slowloris header-drippers, per-IP
// floods, connection churn, malformed request lines) concurrently with the
// normal replay, then waits for the server's /debug/metrics to show its live
// sessionizer caught up.
//
// After the run loadgen prints one line per check (loadgen.Check) and exits
// 1 if a check failed. A run cut short by a signal prints its checks and
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"smartsra/internal/loadgen"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

func main() {
	var (
		url      = flag.String("url", "", "base URL of the serve instance under test (required)")
		topoPath = flag.String("topo", "", "topology JSON the server is serving (required)")
		agents   = flag.Int("agents", 500, "number of simulated users")
		seed     = flag.Int64("seed", 1, "simulation seed (fixed seed = reproducible schedule)")
		speedup  = flag.Float64("speedup", 60, "simulated seconds replayed per real second (0 = no pacing, maximum pressure)")
		workers  = flag.Int("workers", 8, "concurrent in-flight requests")
		chaos    = flag.Bool("chaos", false, "run the adversarial suite (slowloris, floods, churn, malformed) alongside the replay and check the server's /debug/metrics counters after it")
	)
	flag.Parse()
	if err := run(*url, *topoPath, *agents, *seed, *speedup, *workers, *chaos); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(url, topoPath string, agents int, seed int64, speedup float64, workers int, chaos bool) error {
	if url == "" || topoPath == "" {
		return fmt.Errorf("both -url and -topo are required")
	}
	f, err := os.Open(topoPath)
	if err != nil {
		return err
	}
	g, err := webgraph.Decode(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("decode %s: %w", topoPath, err)
	}

	params := simulator.PaperParams()
	params.Agents = agents
	params.Seed = seed
	params.StartWindow = time.Hour
	res, err := simulator.Run(g, params)
	if err != nil {
		return err
	}
	reqs := res.Schedule(g)
	span := time.Duration(0)
	if len(reqs) > 1 {
		span = reqs[len(reqs)-1].At.Sub(reqs[0].At)
	}
	fmt.Printf("schedule: %d requests from %d users over %s of simulated time (seed %d)\n",
		len(reqs), agents, span.Round(time.Second), seed)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The chaos suite attacks the same server while the legitimate replay
	// runs, so admission control is exercised under real mixed traffic.
	var chaosRep *loadgen.ChaosReport
	var chaosErr error
	chaosDone := make(chan struct{})
	if chaos {
		go func() {
			defer close(chaosDone)
			r, err := loadgen.RunChaos(ctx, url)
			chaosRep, chaosErr = &r, err
		}()
	} else {
		close(chaosDone)
	}

	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:  url,
		Requests: reqs,
		Speedup:  speedup,
		Workers:  workers,
	})
	if err != nil && err != context.Canceled {
		return err
	}
	cut := err != nil
	fmt.Printf("replay:   %s\n", rep)
	<-chaosDone
	if chaosErr != nil {
		return chaosErr
	}
	var server map[string]int64
	if chaos {
		fmt.Printf("chaos:    %s\n", chaosRep)
		if server, err = caughtUp(url); err != nil {
			return err
		}
	}

	var failed []string
	for _, r := range loadgen.Check(rep, chaosRep, server, runtime.GOMAXPROCS(0)) {
		fmt.Println(r)
		if r.Failed {
			failed = append(failed, r.Check)
		}
	}
	if len(failed) > 0 && !cut {
		return fmt.Errorf("failed checks: %s", strings.Join(failed, ", "))
	}
	return nil
}

// caughtUp polls the server's /debug/metrics until its live sessionizer has
// read every logged request back from the access log (serve.requests ==
// serve.ingest.records), because the chaos checks assert the settled state.
// After 30s it returns whatever the server reports: a sessionizer that fell
// behind for good fails the check, it does not hide behind a poll that gave
// up silently.
func caughtUp(url string) (map[string]int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := loadgen.ScrapeMetrics(ctx, url)
		if err != nil || m["serve.requests"] == m["serve.ingest.records"] || time.Now().After(deadline) {
			return m, err
		}
		time.Sleep(500 * time.Millisecond)
	}
}
