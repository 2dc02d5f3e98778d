package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the evaluate binary: with
// EVALUATE_CHILD=1 it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("EVALUATE_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// evaluate runs this package's main on args, on four Ps whatever the box
// has, so -workers 0 is a pool width of its own, and returns stdout and
// stderr.
func evaluate(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EVALUATE_CHILD=1", "GOMAXPROCS=4")
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	if err := cmd.Run(); err != nil {
		t.Fatalf("evaluate %v: %v; stderr:\n%s", args, err, errBuf.String())
	}
	return out.String(), errBuf.String()
}

// TestOutputIndependentOfWorkers: a sweep, a replication, and a single
// replica — the one shape whose point has every worker to itself — print the
// same bytes for any pool width, -progress included.
func TestOutputIndependentOfWorkers(t *testing.T) {
	for _, shape := range [][]string{
		{"-experiment", "lpp", "-agents", "300"},
		{"-experiment", "defaults", "-agents", "300", "-replicas", "3"},
		{"-experiment", "defaults", "-agents", "300", "-replicas", "1"},
	} {
		want, _ := evaluate(t, append(shape, "-workers", "1")...)
		if !strings.Contains(want, "heur4") {
			t.Fatalf("%v: no heur4 in the output:\n%s", shape, want)
		}
		for _, workers := range []string{"0", "2", "3"} {
			if got, _ := evaluate(t, append(shape, "-workers", workers)...); got != want {
				t.Errorf("%v -workers %s: stdout differs from -workers 1:\n%s\nwant:\n%s", shape, workers, got, want)
			}
		}
		got, stderr := evaluate(t, append(shape, "-workers", "2", "-progress")...)
		if got != want {
			t.Errorf("%v -progress: stdout differs from a run without it", shape)
		}
		for _, histo := range []string{"eval.point.seconds", "eval.point.simulate.seconds", "eval.point.score.seconds"} {
			if !strings.Contains(stderr, "histo   "+histo+" ") {
				t.Errorf("%v -progress: no %s histogram on stderr:\n%s", shape, histo, stderr)
			}
		}
	}
}
