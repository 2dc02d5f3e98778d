package smartsra

// Integration tests for the command-line surface: the workflow's commands
// are compiled once and driven through the documented end-to-end workflow
// (simgen → sessionize → score → wumine → evaluate) against a temporary
// directory. These catch flag drift, broken wiring
// between tools, and file-format regressions that unit tests cannot see.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// workflowTools are the commands TestCLIWorkflow runs.
var workflowTools = []string{"simgen", "sessionize", "score", "wumine", "evaluate"}

// buildTools compiles workflowTools into dir and returns a runner. With a
// coverDir the tools are built with -cover over the whole module and write
// their coverage there; a -cover tool run without GOCOVERDIR warns on stderr,
// so the other tests build plain ones.
func buildTools(t *testing.T, dir, coverDir string) func(tool string, args ...string) (string, string) {
	t.Helper()
	for _, tool := range workflowTools {
		args := []string{"build", "-o", filepath.Join(dir, tool)}
		if coverDir != "" {
			args = append(args, "-cover", "-coverpkg=smartsra/...")
		}
		cmd := exec.Command("go", append(args, "./cmd/"+tool)...)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return func(tool string, args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(dir, tool), args...)
		if coverDir != "" {
			cmd.Env = append(os.Environ(), "GOCOVERDIR="+coverDir)
		}
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
	workflow(t, dir, buildTools(t, dir, ""))
}

// workflow runs the documented workflow's command lines in dir.
func workflow(t *testing.T, dir string, run func(tool string, args ...string) (string, string)) {
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
	wm, wmErr := run("wumine", "-topology", topo, "-log", logf, "-min-support", "5", "-top", "3")
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

	// wumine's knobs: heur2's sessions, patterns of at most two pages, rules
	// of confidence 0.90 and up.
	wm2, wm2Err := run("wumine", "-topology", topo, "-log", logf, "-min-support", "5", "-top", "1000000",
		"-heuristic", "heur2", "-max-len", "2", "-min-confidence", "0.9")
	if wm2Err == wmErr || !strings.HasPrefix(wm2Err, "pipeline: ") {
		t.Errorf("wumine -heuristic heur2: pipeline line %q, heur4's %q", wm2Err, wmErr)
	}
	if !strings.Contains(wm2, "min confidence 0.90):") || !strings.Contains(wm2, "] x") {
		t.Errorf("wumine heur2 stdout:\n%s", wm2)
	}
	pairs := 0
	for _, line := range strings.Split(wm2, "\n") {
		if pages, ok := strings.CutPrefix(line, "  ["); ok && strings.Contains(line, "] x") {
			switch n := len(strings.Fields(pages[:strings.Index(pages, "]")])); {
			case n > 2:
				t.Errorf("wumine -max-len 2 printed %q", line)
			case n == 2:
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Errorf("wumine -max-len 2 printed no two-page pattern:\n%s", wm2)
	}
	confident, _ := run("wumine", "-topology", topo, "-log", logf, "-min-support", "5", "-top", "1000000", "-min-confidence", "0.9")
	rules := ruleConfidences(t, confident)
	if all := count(t, wm, "association rules ("); len(rules) == 0 || len(rules) >= all {
		t.Errorf("wumine -min-confidence 0.9 printed %d rules, want some and fewer than the %d at 0.5:\n%s", len(rules), all, confident)
	}
	for _, c := range append(rules, ruleConfidences(t, wm2)...) {
		if c < 0.9 {
			t.Errorf("wumine -min-confidence 0.9 printed a rule of confidence %.2f", c)
		}
	}

	// simgen's knobs: with no link-from-previous or new-initial page, a
	// fourfold termination probability and a fifth of the links, the run
	// navigates less over a sparser topology, one so sparse that the
	// generator must link pages no start page reaches.
	sparse, _ := run("simgen", "-out", filepath.Join(dir, "sparse"), "-agents", "300", "-seed", "11", "-pages", "120",
		"-lpp", "0", "-nip", "0", "-stp", "0.2", "-outdeg", "3")
	if !strings.Contains(sparse, " nip=0 lpp=0\n") {
		t.Errorf("simgen -lpp 0 -nip 0: run line in\n%s", sparse)
	}
	if got, paper := count(t, sparse, "navigations="), count(t, out, "navigations="); got >= paper {
		t.Errorf("simgen -stp 0.2 navigates %d times, the defaults %d", got, paper)
	}
	if got, paper := count(t, sparse, "edges: "), count(t, out, "edges: "); got >= paper {
		t.Errorf("simgen -outdeg 3 links %d times, the default 15 %d", got, paper)
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

// count returns the integer after the first key in out.
func count(t *testing.T, out, key string) int {
	t.Helper()
	_, after, ok := strings.Cut(out, key)
	if !ok {
		t.Fatalf("no %q in\n%s", key, out)
	}
	digits := after[:len(after)-len(strings.TrimLeft(after, "0123456789"))]
	n, err := strconv.Atoi(digits)
	if err != nil {
		t.Fatalf("%q in\n%s: %v", key, out, err)
	}
	return n
}

// ruleConfidences returns the confidence of every rule wumine printed.
func ruleConfidences(t *testing.T, out string) []float64 {
	t.Helper()
	var confs []float64
	for _, line := range strings.Split(out, "\n") {
		if _, after, ok := strings.Cut(line, "(conf "); ok {
			c, err := strconv.ParseFloat(after[:strings.Index(after, ",")], 64)
			if err != nil {
				t.Fatalf("rule %q: %v", line, err)
			}
			confs = append(confs, c)
		}
	}
	return confs
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

// TestEveryFlagIsSet fails when a flag a command defines is passed on none
// of that command's command lines: no string literal in cmd/<c>/*_test.go,
// no call in a root test or in bench/ whose string literals name the tool,
// and no line of the CI workflow that runs bin/<c>. A Go call to a
// command's run function sets no flag. unset names the exceptions, each
// with its reason.
func TestEveryFlagIsSet(t *testing.T) {
	unset := map[string]string{}
	defined := map[string]bool{} // "<c> -name"
	set := map[string]bool{}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var tools []string
	for _, d := range cmds {
		if d.IsDir() {
			tools = append(tools, d.Name())
		}
	}
	for _, c := range tools {
		for _, f := range parseGoFiles(t, filepath.Join("cmd", c, "*.go")) {
			test := strings.HasSuffix(f.name, "_test.go")
			ast.Inspect(f.file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && !test {
					for _, name := range flagNames(call) {
						defined[c+" -"+name] = true
					}
				}
				if s, ok := stringLit(n); ok && test {
					if name, ok := flagArg(s); ok {
						set[c+" "+name] = true
					}
				}
				return true
			})
		}
	}
	// A call in a root test or in bench/ sets the flags among its string
	// literals — its arguments', not a function literal's — when one of
	// them names the tool: run("simgen", …), exec.Command(e.tool("serve"), …).
	files := append(parseGoFiles(t, "*_test.go"), parseGoFiles(t, filepath.Join("bench", "*.go"))...)
	for _, f := range files {
		ast.Inspect(f.file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var lits []string
			ast.Inspect(call, func(n ast.Node) bool {
				if s, ok := stringLit(n); ok {
					lits = append(lits, s)
				}
				_, fn := n.(*ast.FuncLit)
				return !fn
			})
			for _, c := range tools {
				if !slices.Contains(lits, c) {
					continue
				}
				for _, s := range lits {
					if name, ok := flagArg(s); ok {
						set[c+" "+name] = true
					}
				}
			}
			return true
		})
	}
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.ReplaceAll(string(ci), "\\\n", " "), "\n") {
		fields := strings.Fields(line)
		for i, field := range fields {
			c, ok := strings.CutPrefix(strings.TrimPrefix(field, "./"), "bin/")
			if !ok || !slices.Contains(tools, c) {
				continue
			}
			for _, arg := range fields[i+1:] {
				if name, ok := flagArg(arg); ok {
					set[c+" "+name] = true
				}
			}
		}
	}
	var names []string
	for name := range defined {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		reason, exempt := unset[name]
		switch {
		case !set[name] && !exempt:
			t.Errorf("%s: no test, CI step or bench/ run passes it; test it, or delete it", name)
		case set[name] && exempt:
			t.Errorf("%s: a command line passes it now; drop its unset entry (%q)", name, reason)
		}
	}
	for name := range unset {
		if !defined[name] {
			t.Errorf("%s: no command defines it; drop its unset entry", name)
		}
	}
}

type goFile struct {
	name string
	file *ast.File
}

// parseGoFiles parses the Go files pattern matches.
func parseGoFiles(t *testing.T, pattern string) []goFile {
	t.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	var files []goFile
	for _, p := range paths {
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, goFile{p, f})
	}
	return files
}

// flagNames returns the flags a call defines: flag.X("name", …) and
// flag.XVar(&v, "name", …) on the command line's set, and -cpuprofile and
// -memprofile for prof.Register.
func flagNames(call *ast.CallExpr) []string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	fn := sel.Sel.Name
	if pkg.Name == "prof" && fn == "Register" {
		return []string{"cpuprofile", "memprofile"}
	}
	arg := 0
	switch {
	case pkg.Name != "flag":
		return nil
	case strings.HasSuffix(fn, "Var"):
		arg = 1
	case !slices.Contains([]string{"Bool", "BoolFunc", "Duration", "Float64", "Func", "Int", "Int64", "String", "Uint", "Uint64"}, fn):
		return nil
	}
	if len(call.Args) <= arg {
		return nil
	}
	if name, ok := stringLit(call.Args[arg]); ok {
		return []string{name}
	}
	return nil
}

// stringLit returns the value of a Go string literal.
func stringLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// flagArg returns "-name" for a command-line argument -name or -name=value.
func flagArg(s string) (string, bool) {
	name, ok := strings.CutPrefix(s, "-")
	name = strings.TrimPrefix(name, "-")
	name, _, _ = strings.Cut(name, "=")
	if !ok || name == "" || name[0] < 'a' || name[0] > 'z' {
		return "", false
	}
	return "-" + name, true
}

// The reasons a function may run in no command, or a field be set by none.
// unreached admits the first five, unset forBench, forProxies and the last
// two.
const (
	forBench     = "bench/ calls it, and bench/ is frozen until ROADMAP item 2 deletes it"
	forReference = "another package's tests use it as their independent reference (aim 3)"
	forInterface = "an interface requires it"
	forCI        = "only a named CI step reaches it"
	forProxies   = "the simulator's proxy path: no command sets Params.ProxyFraction until ROADMAP items 2 and 13"
	forFixtures  = "another package's tests need a value no command uses, to build an input small enough to test"
	forState     = "the package writes it as output or running state, and callers only read it"
)

// TestEveryFunctionIsRun fails when a non-test function outside
// internal/faultio runs in none of the command lines the tests start: the
// workflow above on tools built with -cover, and the cmd/* tests, in-process
// and in their re-executed children, on test binaries built with -cover. A
// function counts as run when any of its statements ran. unreached names
// the exceptions, "file Func" or "file Type.Method", or a file when nothing
// in it runs, each with one of the reasons above. Run it alone with
// go test -run TestEveryFunctionIsRun -v . to see the counts.
func TestEveryFunctionIsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests every command with coverage")
	}
	unreached := map[string]string{
		"internal/clf/bytes.go ParseAnyRecordBytes": forBench,
		"internal/clf/input.go OpenDecoded":         forBench,
		"internal/clf/input.go stackedCloser.Close": forBench,
		"internal/clf/line.go":                      forBench, // lineScanner, under Scanner
		"internal/clf/scanner.go NewScanner":        forBench,
		"internal/clf/scanner.go WriteAll":          forBench, // bench/gen_test.go's reference render
		"internal/clf/scanner.go Scanner.Scan":      forBench,
		"internal/clf/scanner.go Scanner.Record":    forBench,
		"internal/clf/scanner.go Scanner.Err":       forBench,
		"internal/clf/scanner.go Scanner.Malformed": forBench,
		"internal/clf/scanner.go Scanner.LinesRead": forBench,
		"internal/clf/scanner.go isBlank":           forBench,
		"internal/core/shardedtail.go":              forBench,
		"internal/core/tail.go Tail.Push":           forBench,
		"internal/core/tail.go Tail.PushBatch":      forBench,
		"internal/core/tail.go Tail.Flush":          forBench,
		"internal/core/tail.go Tail.Buffered":       forBench,
		"internal/core/tail.go Tail.ActiveUsers":    forBench,
		"internal/core/stream.go DiscardSessions":   forBench,
		"internal/checkpoint/checkpoint.go Save":    forBench,
		"internal/simulator/crawler.go":             forBench, // CrawlerRecords

		"internal/clf/scanner.go ReadAll":                                forReference, // the streaming tests' reader
		"internal/session/capture.go Captures":                           forReference, // eval's capture index
		"internal/session/capture.go MaximalOnly":                        forReference, // Phase 2's maximality
		"internal/session/session.go Session.Duration":                   forReference, // under Valid
		"internal/session/session.go Session.SatisfiesTimestampOrdering": forReference,
		"internal/session/session.go Session.SatisfiesTopology":          forReference,
		"internal/session/session.go Session.WithinTotalDuration":        forReference,
		"internal/session/session.go Session.Valid":                      forReference,
		"internal/webgraph/builder.go Builder.MustBuild":                 forReference,

		"internal/clf/record.go ParseError.Error":                    forInterface, // error
		"internal/clf/record.go truncate":                            forInterface, // under ParseError.Error
		"internal/webserver/webserver.go countingWriter.WriteHeader": forInterface, // http.ResponseWriter
		"internal/checkpoint/fs.go osFS.Remove":                      forInterface, // checkpoint.FS

		"cmd/loadgen/main.go main":     forCI, // load smoke and chaos soak
		"cmd/loadgen/main.go caughtUp": forCI, // chaos soak: loadgen -chaos
		"internal/loadgen/chaos.go":    forCI, // chaos soak: loadgen -chaos

		"internal/simulator/run.go ProxyID": forProxies,
	}
	dir := t.TempDir()
	cover := filepath.Join(dir, "cover")
	if err := os.Mkdir(cover, 0o755); err != nil {
		t.Fatal(err)
	}
	workflow(t, dir, buildTools(t, dir, cover))
	goTool(t, []string{"CHILD_GOCOVERDIR=" + cover},
		"test", "-count=1", "-cover", "-coverpkg=smartsra/...", "./cmd/...", "-args", "-test.gocoverdir="+cover)
	// go tool covdata func merges the data and prints one line per function,
	// "smartsra/<file>:<line>:\t<Func>\t<pct>%", a method as *Type.Method or
	// Type.Method.
	ran := map[string]bool{}       // "file Func" → any statement ran
	files := map[string][]string{} // file → its "file Func" keys
	lines := map[string]string{}
	for _, line := range strings.Split(goTool(t, nil, "tool", "covdata", "func", "-i="+cover), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || f[0] == "total" {
			continue
		}
		loc, ok := strings.CutPrefix(strings.TrimSuffix(f[0], ":"), "smartsra/")
		if !ok {
			t.Fatalf("covdata func line %q", line)
		}
		file, at, _ := strings.Cut(loc, ":")
		if strings.HasPrefix(file, "internal/faultio/") {
			continue
		}
		key := file + " " + strings.TrimPrefix(f[1], "*")
		ran[key] = f[2] != "0.0%"
		files[file] = append(files[file], key)
		lines[key] = at
	}
	if len(ran) == 0 {
		t.Fatal("no function in the coverage profile")
	}
	exempt := func(key string) (string, bool) {
		if reason, ok := unreached[key]; ok {
			return reason, true
		}
		file, _, _ := strings.Cut(key, " ")
		reason, ok := unreached[file]
		return reason, ok
	}
	keys := make([]string, 0, len(ran))
	for key := range ran {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	counts := map[string]int{}
	for _, key := range keys {
		reason, ok := exempt(key)
		file, name, _ := strings.Cut(key, " ")
		switch {
		case !ran[key] && !ok:
			t.Errorf("%s:%s %s: no command runs it; run it from a test's command line, move it into the _test.go files of the one package whose tests use it, or delete it",
				file, lines[key], name)
		case ran[key] && ok:
			t.Errorf("%s:%s %s: a command runs it now; drop its unreached entry (%q)", file, lines[key], name, reason)
		case ok:
			counts[reason]++
		}
	}
	reasons := []string{forBench, forReference, forInterface, forCI, forProxies}
	for entry, reason := range unreached {
		_, named := ran[entry]
		if !named && files[entry] == nil {
			t.Errorf("%s: no such non-test function or file; drop its unreached entry", entry)
		}
		if !slices.Contains(reasons, reason) {
			t.Errorf("%s: %q is not one of the reasons a function may run in no command", entry, reason)
		}
	}
	t.Logf("%d non-test functions, %d run in no command", len(ran), counts[forBench]+counts[forReference]+counts[forInterface]+counts[forCI]+counts[forProxies])
	for _, reason := range reasons {
		t.Logf("%3d exempt: %s", counts[reason], reason)
	}
}

// goTool runs the go command with args and extra environment, and returns its
// output.
func goTool(t *testing.T, env []string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestEveryFieldIsSet fails when an exported field of an exported struct
// type under internal/ (outside faultio and plan) is written by no non-test
// file, or, when its type is a settings type — one whose fields some
// non-test file outside its package writes — by no non-test file outside
// its package. A write is a key or a positional element of a composite
// literal, an assignment or inc/dec target (every field of a selector
// chain: cfg.Params.Agents = n writes RunConfig.Params too), an address
// &x.F, or the receiver x.F of a pointer-method call. Embedded fields are
// not checked. unset names the exceptions, "pkg.Type.Field", each with one
// of the reasons above. Run it alone with
// go test -run TestEveryFieldIsSet -v . to see the counts.
func TestEveryFieldIsSet(t *testing.T) {
	unset := map[string]string{
		"clf.StreamConfig.Workers":                  forBench,
		"clf.StreamConfig.NoMmap":                   forBench,
		"simulator.Params.ProxyFraction":            forProxies,
		"simulator.Params.ProxySize":                forProxies,
		"core.Config.StreamChunkBytes":              forFixtures, // checkpoints within small logs
		"webgraph.TopologyConfig.StartPageFraction": forFixtures,
		"checkpoint.Sink.Good":                      forState,
		"simulator.Result.Real":                     forState,
		"simulator.Result.Stats":                    forState,
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → its non-test files
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := "smartsra/" + filepath.ToSlash(filepath.Dir(path))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	checked := map[string]*types.Package{}
	var imp importerFunc
	std := importer.ForCompiler(fset, "gc", nil)
	imp = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		if _, ok := files[path]; !ok {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files[path], info)
		checked[path] = pkg
		return pkg, err
	}
	var paths []string
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			t.Fatal(err)
		}
	}

	// The fields in scope, each with where it is declared.
	type field struct {
		key, typ, pkg, pos string
	}
	fields := map[*types.Var]*field{}
	for _, path := range paths {
		pkg := strings.TrimPrefix(path, "smartsra/")
		if !strings.HasPrefix(pkg, "internal/") || pkg == "internal/faultio" || pkg == "internal/plan" {
			continue
		}
		scope := checked[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if !v.Exported() || v.Embedded() {
					continue
				}
				p := fset.Position(v.Pos())
				fields[v] = &field{
					key: checked[path].Name() + "." + name + "." + v.Name(),
					typ: path + "." + name,
					pkg: path,
					pos: fmt.Sprintf("%s:%d", p.Filename, p.Line),
				}
			}
		}
	}

	// The writes: field → the packages whose non-test files write it.
	writers := map[*types.Var]map[string]bool{}
	write := func(v *types.Var, pkg string) {
		if v == nil {
			return
		}
		v = v.Origin()
		if writers[v] == nil {
			writers[v] = map[string]bool{}
		}
		writers[v][pkg] = true
	}
	// chain writes every field of a selector chain that ends in x.
	var chain func(x ast.Expr, pkg string)
	chain = func(x ast.Expr, pkg string) {
		switch e := x.(type) {
		case *ast.ParenExpr:
			chain(e.X, pkg)
		case *ast.StarExpr:
			chain(e.X, pkg)
		case *ast.IndexExpr:
			chain(e.X, pkg)
		case *ast.SelectorExpr:
			if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
				write(s.Obj().(*types.Var), pkg)
				chain(e.X, pkg)
			}
		}
	}
	for _, path := range paths {
		for _, f := range files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							v, _ := info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
							write(v, path)
						} else {
							write(st.Field(i), path)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						chain(lhs, path)
					}
				case *ast.IncDecStmt:
					chain(n.X, path)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						chain(n.X, path)
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
						if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
							chain(sel.X, path)
						}
					}
				}
				return true
			})
		}
	}
	settings := map[string]bool{} // type → some field written outside its package
	outside := map[*types.Var]bool{}
	for v, f := range fields {
		for pkg := range writers[v] {
			if pkg != f.pkg {
				settings[f.typ], outside[v] = true, true
			}
		}
	}

	var keys []string
	byKey := map[string]*types.Var{}
	for v, f := range fields {
		keys = append(keys, f.key)
		byKey[f.key] = v
	}
	sort.Strings(keys)
	counts := map[string]int{}
	for _, key := range keys {
		v := byKey[key]
		f := fields[v]
		var why string
		switch {
		case len(writers[v]) == 0:
			why = "no non-test file writes it"
		case settings[f.typ] && !outside[v]:
			why = "no non-test file outside its package writes it, and it configures that package"
		}
		reason, exempt := unset[key]
		switch {
		case why != "" && !exempt:
			t.Errorf("%s %s: %s; make it a constant, unexported, or delete it", f.pos, key, why)
		case why == "" && exempt:
			t.Errorf("%s %s: a command sets it now; drop its unset entry (%q)", f.pos, key, reason)
		case exempt:
			counts[reason]++
		}
	}
	reasons := []string{forBench, forProxies, forFixtures, forState}
	for key, reason := range unset {
		if byKey[key] == nil {
			t.Errorf("%s: no such field in scope; drop its unset entry", key)
		}
		if !slices.Contains(reasons, reason) {
			t.Errorf("%s: %q is not one of the reasons a field may be set by no command", key, reason)
		}
	}
	t.Logf("%d fields checked, %d set by no command", len(keys), counts[forBench]+counts[forProxies]+counts[forFixtures]+counts[forState])
	for _, reason := range reasons {
		t.Logf("%3d exempt: %s", counts[reason], reason)
	}
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
