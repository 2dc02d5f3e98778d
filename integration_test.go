package smartsra

// Integration tests for the command-line surface: the workflow's commands
// are compiled once and driven through the documented end-to-end workflow
// (simgen → sessionize → score → wumine → evaluate) against a temporary
// directory. These catch flag drift, broken wiring
// between tools, and file-format regressions that unit tests cannot see.

import (
	"bytes"
	"compress/gzip"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// workflowTools are the commands TestCLIWorkflow runs.
var workflowTools = []string{"simgen", "sessionize", "score", "wumine", "evaluate"}

// buildTools compiles workflowTools into dir and returns a runner.
func buildTools(t *testing.T, dir string) func(tool string, args ...string) (string, string) {
	t.Helper()
	for _, tool := range workflowTools {
		bin := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return func(tool string, args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, tool), args...)
		var so, se strings.Builder
		cmd.Stdout, cmd.Stderr = &so, &se
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s",
				tool, args, err, so.String(), se.String())
		}
		return so.String(), se.String()
	}
}

func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	run := buildTools(t, dir)
	site := filepath.Join(dir, "site")

	// simgen: topology + log + ground truth.
	out, _ := run("simgen", "-out", site, "-agents", "300", "-seed", "11", "-pages", "120", "-combined")
	if !strings.Contains(out, "pages: 120") {
		t.Errorf("simgen output:\n%s", out)
	}
	for _, f := range []string{"topology.json", "access.log", "sessions.real"} {
		if _, err := os.Stat(filepath.Join(site, f)); err != nil {
			t.Fatalf("simgen did not write %s: %v", f, err)
		}
	}

	topo := filepath.Join(site, "topology.json")
	logf := filepath.Join(site, "access.log")

	// sessionize with Smart-SRA.
	sessions, stderr := run("sessionize", "-topology", topo, "-log", logf)
	if !strings.Contains(stderr, "heur4") {
		t.Errorf("sessionize stderr:\n%s", stderr)
	}
	heur4File := filepath.Join(site, "sessions.heur4")
	if err := os.WriteFile(heur4File, []byte(sessions), 0o644); err != nil {
		t.Fatal(err)
	}

	// sessionize with the referrer chain (combined log).
	refSessions, refErr := run("sessionize", "-topology", topo, "-log", logf, "-heuristic", "referrer")
	if !strings.Contains(refErr, "heurR") || !strings.Contains(refErr, "with-referer=") {
		t.Errorf("referrer stderr:\n%s", refErr)
	}
	refFile := filepath.Join(site, "sessions.ref")
	if err := os.WriteFile(refFile, []byte(refSessions), 0o644); err != nil {
		t.Fatal(err)
	}

	// score both against ground truth; the referrer chain wins.
	real := filepath.Join(site, "sessions.real")
	s4, _ := run("score", "-real", real, "-reconstructed", heur4File)
	if want := `real sessions:          2912 (sessions=2912 meanLen=2.41 medianLen=2.0 maxLen=13)
reconstructed sessions: 2415 (sessions=2415 meanLen=2.79 medianLen=2.0 maxLen=11)
accuracy (matched):     1265/2912 (43.4%)
accuracy (exists):      1636/2912 (56.2%)
`; s4 != want {
		t.Errorf("score heur4 stdout:\n%s\nwant:\n%s", s4, want)
	}
	sr, _ := run("score", "-real", real, "-reconstructed", refFile)
	if want := `real sessions:          2912 (sessions=2912 meanLen=2.41 medianLen=2.0 maxLen=13)
reconstructed sessions: 2597 (sessions=2597 meanLen=2.40 medianLen=2.0 maxLen=9)
accuracy (matched):     2299/2912 (78.9%)
accuracy (exists):      2558/2912 (87.8%)
`; sr != want {
		t.Errorf("score referrer stdout:\n%s\nwant:\n%s", sr, want)
	}

	// wumine: frequent patterns.
	wm, _ := run("wumine", "-topology", topo, "-log", logf, "-min-support", "5", "-top", "3")
	if want := `frequent patterns (407 total, min support 5, contiguous):
  [83] x345  /index.html
  [99] x344  /p/99.html
  [12] x340  /p/12.html
  ... 404 more
association rules (16 total, min confidence 0.50):
  [37 99 63] => 31 (conf 1.00, sup 8)
  [9 89 6] => 2 (conf 1.00, sup 6)
  [83 9 89 6] => 2 (conf 1.00, sup 6)
  ... 13 more
`; wm != want {
		t.Errorf("wumine stdout:\n%s\nwant:\n%s", wm, want)
	}
	// A gzip copy of the log mines the same patterns.
	gzLog := logf + ".gz"
	writeGzip(t, gzLog, logf)
	if gz, _ := run("wumine", "-topology", topo, "-log", gzLog, "-min-support", "5", "-top", "3"); gz != wm {
		t.Errorf("wumine on the gzip copy:\n%s\nwant what the plain log gives:\n%s", gz, wm)
	}

	// evaluate: a miniature sweep and the replicated defaults.
	ev, _ := run("evaluate", "-experiment", "nip", "-agents", "120", "-pages", "80")
	if !strings.Contains(ev, "figure10") || !strings.Contains(ev, "shape:") {
		t.Errorf("evaluate output:\n%s", ev)
	}
	def, _ := run("evaluate", "-experiment", "defaults", "-agents", "120", "-replicas", "2")
	if !strings.Contains(def, "±") {
		t.Errorf("evaluate defaults output:\n%s", def)
	}
}

// writeGzip writes a gzip copy of the file src to dst.
func writeGzip(t *testing.T, dst, src string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEveryCommandIsRun fails when a command under cmd/ is neither run by
// TestCLIWorkflow nor tested in its own directory.
func TestEveryCommandIsRun(t *testing.T) {
	run := map[string]bool{}
	for _, tool := range workflowTools {
		run[tool] = true
	}
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() || run[d.Name()] {
			continue
		}
		tests, err := filepath.Glob(filepath.Join("cmd", d.Name(), "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tests) == 0 {
			t.Errorf("cmd/%s has no test file and TestCLIWorkflow does not run it", d.Name())
		}
	}
}

// TestEveryPackageIsRun fails when a package under internal/ is reached by
// no command: not imported, directly or through other packages, by the
// non-test files of cmd/*. unrun names the exceptions, each with its reason.
func TestEveryPackageIsRun(t *testing.T) {
	unrun := map[string]string{
		"internal/faultio": "only tests import it",
		"internal/plan":    "only bench/ imports it, until ROADMAP item 2",
	}
	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if pkg, ok := strings.CutPrefix(path, "smartsra/"); ok {
					visit(pkg)
				}
			}
		}
	}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cmds {
		if d.IsDir() {
			visit("cmd/" + d.Name())
		}
	}
	pkgs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range pkgs {
		if !d.IsDir() {
			continue
		}
		pkg := "internal/" + d.Name()
		reason, exempt := unrun[pkg]
		switch {
		case !reached[pkg] && !exempt:
			t.Errorf("%s: no command reaches it; delete it, or name it in unrun with a reason", pkg)
		case reached[pkg] && exempt:
			t.Errorf("%s: a command reaches it now; drop its unrun entry (%q)", pkg, reason)
		}
	}
}

// TestCLIErrors checks the tools fail loudly on bad invocations.
func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	run := exec.Command("go", "build", "-o", filepath.Join(dir, "sessionize"), "./cmd/sessionize")
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cases := [][]string{
		{}, // missing required flags
		{"-topology", "/no/such/file", "-log", "-"}, // unreadable topology
	}
	for _, args := range cases {
		cmd := exec.Command(filepath.Join(dir, "sessionize"), args...)
		if err := cmd.Run(); err == nil {
			t.Errorf("sessionize %v succeeded, want failure", args)
		}
	}
}
