package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one workload × end-to-end metric row.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	// verdictReported marks a row that is shown, not judged: an end-to-end
	// metric of one workload that the catalogue does not gate.
	verdictReported = "reported"
)

// compareFiles prints, for every workload × end-to-end metric present in
// both result sets, both medians with their quartiles, the ratio B/A (its
// base is A's median), the bound, and a verdict:
//
//	unresolved  either set's spread (q3-q1)/median is wider than the bound,
//	            so the sets cannot show a difference of that size (setup_s
//	            is exempt, as it is in the driver's own check)
//	worse       B's median is worse than A's by more than the bound
//	within      otherwise
//	reported    the catalogue gives the metric no bound
//
// and, per workload, failed operations over attempted ones, which must not
// rise. It reports whether anything is worse; a set in which a run failed
// an output check is worse than anything, whichever side it is on.
func compareFiles(w io.Writer, spec *catalogue, pathA, pathB string) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s  (%s, %s, nproc %d)\nB: %s  (%s, %s, nproc %d)\n\n",
		pathA, a.Env.Commit, a.Env.GoVersion, a.Env.NProc, pathB, b.Env.Commit, b.Env.GoVersion, b.Env.NProc)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tB/A\tbound\tverdict")
	anyWorse := false
	for _, wl := range spec.Workloads {
		sa, sb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if sa == nil || sb == nil {
			continue
		}
		// Each gated time is followed by its raw reading, where a run kept one.
		var rows []metricSpec
		for _, m := range spec.EndToEnd {
			rows = append(rows, m)
			if raw, ok := spec.reported(rawPrefix + m.Name); ok {
				rows = append(rows, raw)
			}
		}
		for _, m := range append(rows, spec.PerLayer...) {
			ma, okA := sa.EndToEnd[m.Name]
			mb, okB := sb.EndToEnd[m.Name]
			if !okA || !okB || ma.N == 0 || mb.N == 0 || m.Name == "failed_share" {
				continue
			}
			ratio, bound := "-", "-"
			if ma.Median != 0 {
				ratio = fmt.Sprintf("%.3f", mb.Median/ma.Median)
			}
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.2f", m.Bound)
			}
			verdict := judge(m, ma, mb)
			anyWorse = anyWorse || verdict == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%s\t%s\t%s\n",
				wl.Name, m.Name, m.Unit, ma.Median, ma.Q1, ma.Q3, ma.N, mb.Median, mb.Q1, mb.Q3, mb.N, ratio, bound, verdict)
		}
		// failed_share must not rise, and has no median worth the name:
		// the operations of all runs are added up.
		fa, fb := failedShare(sa), failedShare(sb)
		verdict := verdictWithin
		if fb > fa {
			verdict, anyWorse = verdictWorse, true
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tshare\t%.5g (%d/%d)\t%.5g (%d/%d)\t-\t0\t%s\n",
			wl.Name, fa, sa.Failed, sa.Attempted, fb, sb.Failed, sb.Attempted, verdict)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	for _, side := range []struct {
		path string
		file *resultFile
	}{{pathA, a}, {pathB, b}} {
		for _, wl := range spec.Workloads {
			if set := side.file.Workloads[wl.Name]; set != nil {
				for _, c := range set.FailedChecks {
					fmt.Fprintf(w, "%s: %s: FAILED CHECK: %s\n", side.path, wl.Name, c)
					anyWorse = true
				}
			}
		}
	}
	return anyWorse, nil
}

func failedShare(s *workloadSet) float64 {
	return float64(s.Failed) / float64(max(s.Attempted, 1))
}

// judge applies the catalogue's bound (not the one stored in a file: the
// bound in force is the current benchmark's).
func judge(m metricSpec, a, b metricSummary) string {
	if m.Bound <= 0 {
		return verdictReported
	}
	// setup_s is held to its bound by its median alone, as the driver
	// holds it: one set-up is a few process starts and file writes, and
	// its spread says little about the medians of ten.
	if m.Name != "setup_s" && (a.Spread > m.Bound || b.Spread > m.Bound) {
		return verdictUnresolved
	}
	worse := b.Median/a.Median - 1 // relative growth
	if m.Better == "higher" {
		worse = 1 - b.Median/a.Median
	}
	if worse > m.Bound {
		return verdictWorse
	}
	return verdictWithin
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Workloads) == 0 {
		return nil, fmt.Errorf("%s holds no per-workload summaries: -compare needs files written by -all", path)
	}
	return &f, nil
}
