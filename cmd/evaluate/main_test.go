package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"smartsra/internal/eval"
	"smartsra/internal/simulator"
)

// TestMain lets the test binary stand in for the evaluate binary: with
// EVALUATE_CHILD=1 it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("EVALUATE_CHILD") == "1" {
		coverChild()
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// coverChild sends a child's coverage to CHILD_GOCOVERDIR when it is set, so
// the root package's TestEveryFunctionIsRun counts what the child ran:
// go test gives the test binary a GOCOVERDIR of its own, which a child would
// otherwise inherit.
func coverChild() {
	if dir := os.Getenv("CHILD_GOCOVERDIR"); dir != "" {
		os.Setenv("GOCOVERDIR", dir)
	}
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

// Under -via-clf every simulated server request is a CLF line parsed back,
// and -progress's metrics snapshot counts each one as a clf.scanner record,
// none malformed.
func TestViaCLFCountsRecords(t *testing.T) {
	cfg := eval.PaperDefaults()
	cfg.Params.Agents = 300
	g, err := eval.Topology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run(g, cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	_, stderr := evaluate(t, "-experiment", "defaults", "-agents", "300", "-replicas", "1", "-via-clf", "-progress")
	counter := func(name string) int {
		for _, line := range strings.Split(stderr, "\n") {
			if v, ok := strings.CutPrefix(line, "counter "+name+" "); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("%s: %q", name, line)
				}
				return n
			}
		}
		t.Fatalf("no counter %s on stderr:\n%s", name, stderr)
		return 0
	}
	if got, want := counter("clf.scanner.records"), res.Stats.ServerRequests; got != want || want == 0 {
		t.Errorf("clf.scanner.records %d, want the run's %d server requests", got, want)
	}
	if got := counter("clf.scanner.malformed"); got != 0 {
		t.Errorf("clf.scanner.malformed %d, want 0", got)
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

// -via-clf routes every request through a CLF encode, parse and clean and
// prints what the direct run prints; -include-referrer adds the heurR
// column and -session-stats the session-shape block; -csv and -svg write the
// figure's files, the CSV row for row the printed table.
func TestReportFlags(t *testing.T) {
	args := []string{"-experiment", "lpp", "-agents", "300"}
	plain, _ := evaluate(t, args...)
	if strings.Contains(plain, "heurR") || strings.Contains(plain, "session shapes") {
		t.Fatalf("the plain run prints the referrer column or session shapes:\n%s", plain)
	}
	if viaCLF, _ := evaluate(t, append(args, "-via-clf")...); viaCLF != plain {
		t.Errorf("-via-clf stdout differs from the direct run:\n%s\nwant:\n%s", viaCLF, plain)
	}

	more, _ := evaluate(t, append(args, "-include-referrer", "-session-stats")...)
	header := "LPP%               heur1           heur2           heur3           heur4           heurR   real-sessions"
	if !strings.Contains(more, header) {
		t.Errorf("-include-referrer: no heurR column in\n%s", more)
	}
	if !strings.Contains(more, "figure9 — reconstructed session shapes\nLPP=0%:\n") ||
		strings.Count(more, "  heurR   sessions=") != 10 {
		t.Errorf("-session-stats: no session-shape block with heurR at each of 10 points in\n%s", more)
	}

	dir := t.TempDir()
	evaluate(t, append(args, "-csv", dir, "-svg", dir)...)
	svg, err := os.ReadFile(filepath.Join(dir, "figure9.svg"))
	if err != nil || !bytes.HasPrefix(svg, []byte("<svg")) {
		t.Errorf("-svg: figure9.svg = %.40q (err %v), want an SVG file", svg, err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "figure9.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var table [][]string
	for _, line := range strings.Split(plain, "\n") {
		if f := strings.Fields(strings.NewReplacer("(", "", ")", "").Replace(line)); len(f) == 10 {
			if _, err := strconv.Atoi(f[0]); err == nil {
				table = append(table, f)
			}
		}
	}
	rows := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(table) != 10 || len(rows) != len(table)+1 {
		t.Fatalf("-csv: %d rows for a table of %d points:\n%s", len(rows)-1, len(table), csv)
	}
	for i, row := range rows[1:] {
		cells := strings.Split(row, ",")
		if len(cells) != len(table[i]) {
			t.Fatalf("-csv row %d: %q, want %d cells", i, row, len(table[i]))
		}
		for j, cell := range cells {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := strconv.ParseFloat(table[i][j], 64)
			if j < len(cells)-1 {
				v *= 100 // a share in the CSV, a percentage in the table
			}
			if math.Abs(v-want) > 0.051 {
				t.Errorf("-csv row %d cell %d: %s, the table prints %s", i, j, cell, table[i][j])
			}
		}
	}
}

// TestFigure8Sweep: -experiment stp sweeps Figure 8's STP values, 1 % to
// 20 %, one table row each in order, and closes with the shape line.
func TestFigure8Sweep(t *testing.T) {
	out, _ := evaluate(t, "-experiment", "stp", "-agents", "300")
	if !strings.HasPrefix(out, "figure8 — Real accuracy vs STP") {
		t.Fatalf("no figure8 title in\n%s", out)
	}
	var stps []int
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 10 {
			if stp, err := strconv.Atoi(f[0]); err == nil {
				stps = append(stps, stp)
			}
		}
	}
	for i, stp := range stps {
		if stp != i+1 {
			t.Fatalf("rows for STP %v%%, want 1 to 20 in order:\n%s", stps, out)
		}
	}
	if len(stps) != 20 || !strings.Contains(out, "\nshape: ") {
		t.Errorf("%d rows and no shape line, want 20 and one:\n%s", len(stps), out)
	}
}
