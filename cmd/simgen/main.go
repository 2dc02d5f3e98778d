// Command simgen generates a random site topology and simulates web agents
// over it, writing three artifacts: the topology (JSON), the server access
// log (Common Log Format), and the ground-truth sessions (text, one session
// per line). These are the inputs for cmd/sessionize and for external
// analysis.
//
// Usage:
//
//	simgen -out DIR [-pages 300] [-outdeg 15] [-agents 10000]
//	       [-stp 0.05] [-lpp 0.3] [-nip 0.3] [-seed 1] [-combined]
//
// The topology is Table 5's uniform random graph: 5% of the pages are entry
// pages and every page is reachable from one.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"smartsra/internal/clf"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

func main() {
	var (
		out      = flag.String("out", ".", "output directory")
		pages    = flag.Int("pages", 300, "number of web pages (Table 5: 300)")
		outdeg   = flag.Float64("outdeg", 15, "average out-degree (Table 5: 15)")
		agents   = flag.Int("agents", 10000, "number of simulated agents (Table 5: 10000)")
		stp      = flag.Float64("stp", 0.05, "session termination probability")
		lpp      = flag.Float64("lpp", 0.30, "link-from-previous-pages probability")
		nip      = flag.Float64("nip", 0.30, "new-initial-page probability")
		seed     = flag.Int64("seed", 1, "random seed (topology uses seed, agents seed+1)")
		combined = flag.Bool("combined", false, "write Combined Log Format (with Referer and User-Agent)")
	)
	flag.Parse()
	if err := run(*out, *pages, *outdeg, *agents, *stp, *lpp, *nip, *seed, *combined); err != nil {
		fmt.Fprintln(os.Stderr, "simgen:", err)
		os.Exit(1)
	}
}

func run(out string, pages int, outdeg float64, agents int,
	stp, lpp, nip float64, seed int64, combined bool) error {
	cfg := webgraph.PaperTopology()
	cfg.Pages, cfg.AvgOutDegree = pages, outdeg
	g, err := webgraph.GenerateTopology(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}

	params := simulator.PaperParams()
	params.Agents = agents
	params.STP, params.LPP, params.NIP = stp, lpp, nip
	params.Seed = seed + 1
	res, err := simulator.Run(g, params)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	newWriter := clf.NewWriter
	if combined {
		newWriter = clf.NewCombinedWriter
	}
	for _, file := range []struct {
		name string
		fill func(io.Writer) error
	}{
		{"topology.json", g.Encode},
		{"access.log", func(w io.Writer) error { return res.WriteLog(newWriter(w), g) }},
		{"sessions.real", func(w io.Writer) error {
			for _, s := range res.Real {
				if _, err := fmt.Fprintln(w, s); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		if err := writeFile(filepath.Join(out, file.name), file.fill); err != nil {
			return err
		}
	}

	fmt.Printf("topology: %s\n", g)
	fmt.Printf("run:      %s\n", res.Stats)
	fmt.Printf("wrote %s/{topology.json, access.log, sessions.real}\n", out)
	return nil
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush %s: %w", path, err)
	}
	return f.Close()
}
