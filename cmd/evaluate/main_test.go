package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
	stdout, stderr, err := evaluateExit(args...)
	if err != nil {
		t.Fatalf("evaluate %v: %v; stderr:\n%s", args, err, stderr)
	}
	return stdout, stderr
}

// evaluateExit is evaluate for a run that may fail: the error is the
// child's exit status.
func evaluateExit(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EVALUATE_CHILD=1", "GOMAXPROCS=4")
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	err = cmd.Run()
	return out.String(), errBuf.String(), err
}

// A command line that cannot mean what it says exits 2 before any work,
// naming what is wrong: -replicas below 1 (a negative count panicked, 0 got
// as far as building the topology), -pages below 2 (0 fell back to the
// paper's site and dropped -outdeg), and a positional argument (ignored).
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		name string
	}{
		{[]string{"-experiment", "defaults", "-agents", "50", "-replicas", "-1"}, "-replicas"},
		{[]string{"-experiment", "defaults", "-agents", "50", "-replicas", "0"}, "-replicas"},
		{[]string{"-experiment", "lpp", "-pages", "0", "-outdeg", "3", "-agents", "50"}, "-pages"},
		{[]string{"-experiment", "lpp", "-pages", "1", "-agents", "50"}, "-pages"},
		{[]string{"-experiment", "lpp", "-agents", "50", "extra"}, `"extra"`},
	} {
		stdout, stderr, err := evaluateExit(c.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2; stderr:\n%s", c.args, err, stderr)
			continue
		}
		if stdout != "" || !strings.Contains(stderr, c.name) || strings.Contains(stderr, "panic") {
			t.Errorf("%v: want no output and a message naming %s, got stdout %q stderr:\n%s",
				c.args, c.name, stdout, stderr)
		}
	}
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

// -cpuprofile and -memprofile write their profiles and leave stdout alone:
// byte for byte what the same run prints without them.
func TestProfilesLeaveStdoutAlone(t *testing.T) {
	args := []string{"-experiment", "lpp", "-agents", "200"}
	want, _ := evaluate(t, args...)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	got, _ := evaluate(t, append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
	if got != want {
		t.Errorf("stdout with profiles differs from a run without them:\n%s\nwant:\n%s", got, want)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (err %v)", f, err)
		}
	}
}
