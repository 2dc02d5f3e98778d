// Command wumine runs the downstream web-usage-mining stage on reconstructed
// sessions: it sessionizes a CLF log with a chosen heuristic, then mines
// frequent navigation patterns and association rules (the apriori-style
// stage the paper's introduction motivates).
//
// Usage:
//
//	wumine -topology topology.json -log access.log [-heuristic heur4]
//	       [-min-support 10] [-max-len 5] [-min-confidence 0.5] [-top 20]
//
// A session supports a pattern only where the pattern occurs in it as an
// uninterrupted run, as the paper scores capture (§5.1).
//
// -log is read and sessionized as sessionize's batch mode does it, by a
// core.Tail with no burst horizon (core.NoHorizon), which reconstructs each
// user's whole history: "-" for stdin, or a comma list or glob of plain and
// gzip files.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/heuristics"
	"smartsra/internal/mining"
	"smartsra/internal/webgraph"
)

func main() {
	var (
		topoPath = flag.String("topology", "", "topology JSON written by simgen (required)")
		logPath  = flag.String("log", "", "CLF access logs: comma-separated paths/globs, gzip ok (required; - for stdin)")
		heur     = flag.String("heuristic", "heur4", "heur1|heur2|heur3|heur4")
		minSup   = flag.Int("min-support", 10, "minimum supporting sessions per pattern")
		maxLen   = flag.Int("max-len", 5, "maximum pattern length (0 = unlimited)")
		minConf  = flag.Float64("min-confidence", 0.5, "minimum rule confidence")
		top      = flag.Int("top", 20, "print at most this many patterns and rules")
	)
	flag.Parse()
	if *topoPath == "" || *logPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*topoPath, *logPath, *heur, *minSup, *maxLen, *minConf, *top); err != nil {
		fmt.Fprintln(os.Stderr, "wumine:", err)
		os.Exit(1)
	}
}

func run(topoPath, logPath, heur string, minSup, maxLen int, minConf float64, top int) error {
	tf, err := os.Open(topoPath)
	if err != nil {
		return err
	}
	g, err := webgraph.Decode(bufio.NewReader(tf))
	tf.Close()
	if err != nil {
		return err
	}
	h, err := heuristics.ByName(heur, g)
	if err != nil {
		return err
	}
	paths, err := clf.ResolveLogPaths(logPath)
	if err != nil {
		return err
	}
	tl, err := core.NewTail(core.Config{Graph: g, Heuristic: h}, core.NoHorizon)
	if err != nil {
		return err
	}
	if paths == nil {
		_, err = tl.Ingest(os.Stdin, nil, nil)
	} else {
		_, err = tl.IngestFiles(paths, clf.FilePos{}, nil, nil)
	}
	if err != nil {
		return err
	}
	sessions := tl.Flush()
	fmt.Fprintf(os.Stderr, "pipeline: %s\n", tl.Stats())

	patterns, err := mining.Mine(sessions, mining.Config{
		MinSupport: minSup, MaxLength: maxLen,
	})
	if err != nil {
		return err
	}
	fmt.Printf("frequent patterns (%d total, min support %d, contiguous):\n",
		len(patterns), minSup)
	for i, p := range patterns {
		if i >= top {
			fmt.Printf("  ... %d more\n", len(patterns)-top)
			break
		}
		fmt.Printf("  %s  %s\n", p, describe(g, p.Pages))
	}

	rules := mining.Rules(patterns, minConf)
	fmt.Printf("association rules (%d total, min confidence %.2f):\n", len(rules), minConf)
	for i, r := range rules {
		if i >= top {
			fmt.Printf("  ... %d more\n", len(rules)-top)
			break
		}
		fmt.Printf("  %s\n", r)
	}
	return nil
}

// describe renders the pattern's pages as URIs for readability.
func describe(g *webgraph.Graph, pages []webgraph.PageID) string {
	out := ""
	for i, p := range pages {
		if i > 0 {
			out += " -> "
		}
		out += g.Label(p)
	}
	return out
}
