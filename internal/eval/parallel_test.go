package eval

import (
	"reflect"
	"strings"
	"testing"

	"smartsra/internal/heuristics"
	"smartsra/internal/webgraph"
)

// renamed wraps a reconstructor under a different report name, standing in
// for a user-supplied custom heuristic.
type renamed struct {
	heuristics.Reconstructor
	name string
}

func (r renamed) Name() string { return r.name }

// customSet is a non-default contender list: two of the paper's heuristics
// plus a custom-named one.
func customSet(g *webgraph.Graph) []heuristics.Reconstructor {
	return []heuristics.Reconstructor{
		heuristics.NewTimeGap(),   // heur2
		heuristics.NewSmartSRA(g), // heur4
		renamed{heuristics.NewTimeTotal(), "zz-custom"},
	}
}

func miniExperiment() Experiment {
	return Experiment{
		Name: "mini", Title: "mini sweep", Variable: "STP",
		Values: []float64{0.02, 0.05, 0.1, 0.2}, Base: smallConfig(),
	}
}

// The tentpole contract: any worker count produces bit-identical
// PointResults — and therefore byte-identical rendered artifacts — because
// points are seeded independently and share the topology read-only.
func TestRunWithMatchesSequential(t *testing.T) {
	exp := miniExperiment()
	seq, err := exp.RunWith(RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		par, err := exp.RunWith(RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq.Points, par.Points) {
			t.Errorf("workers=%d: points differ from sequential run", workers)
		}
		var seqOut, parOut strings.Builder
		if err := seq.WriteTable(&seqOut); err != nil {
			t.Fatal(err)
		}
		if err := par.WriteTable(&parOut); err != nil {
			t.Fatal(err)
		}
		if seqOut.String() != parOut.String() {
			t.Errorf("workers=%d: table not byte-identical", workers)
		}
		seqOut.Reset()
		parOut.Reset()
		if err := seq.WriteCSV(&seqOut); err != nil {
			t.Fatal(err)
		}
		if err := par.WriteCSV(&parOut); err != nil {
			t.Fatal(err)
		}
		if seqOut.String() != parOut.String() {
			t.Errorf("workers=%d: CSV not byte-identical", workers)
		}
	}
}

func TestRunWithProgressAndErrors(t *testing.T) {
	exp := miniExperiment()
	var calls []int
	res, err := exp.RunWith(RunOptions{Workers: 3, Progress: func(done, total int) {
		if total != len(exp.Values) {
			t.Errorf("total = %d, want %d", total, len(exp.Values))
		}
		calls = append(calls, done)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(exp.Values) {
		t.Fatalf("points = %d", len(res.Points))
	}
	if len(calls) != len(exp.Values) || calls[len(calls)-1] != len(exp.Values) {
		t.Errorf("progress calls = %v", calls)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Errorf("progress not monotonically increasing: %v", calls)
			break
		}
	}
	bad := exp
	bad.Variable = "XYZ"
	if _, err := bad.RunWith(RunOptions{Workers: 4}); err == nil {
		t.Error("unknown variable accepted")
	}
	// Failing points surface an error rather than a zero-valued result.
	broken := exp
	broken.Base.Params.Agents = -1
	if _, err := broken.RunWith(RunOptions{Workers: 2}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestReplicateWithMatchesSequential(t *testing.T) {
	cfg := smallConfig()
	cfg.Params.Agents = 80
	seeds := []int64{1, 2, 3, 4, 5}
	seq, err := ReplicateWith(cfg, seeds, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ReplicateWith(cfg, seeds, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel replication differs:\nseq: %+v\npar: %+v", seq, par)
	}
}

// Regression for the hardcoded-series bug: Replicate used to iterate
// HeuristicNames, dropping heurR (IncludeReferrer) and any custom set, and
// reporting missing names as 0%.
func TestReplicateReportsActualSeries(t *testing.T) {
	cfg := smallConfig()
	cfg.Params.Agents = 80
	cfg.IncludeReferrer = true
	cfg.heuristics = customSet
	seeds := []int64{1, 2, 3}
	res, err := ReplicateWith(cfg, seeds, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"heur2", "heur4", "heurR", "zz-custom"}
	if !reflect.DeepEqual(res.Names, want) {
		t.Fatalf("Names = %v, want %v", res.Names, want)
	}
	for _, h := range want {
		m, ok := res.Matched[h]
		if !ok {
			t.Fatalf("series %s missing from summaries", h)
		}
		if m.N != len(seeds) {
			t.Errorf("%s summarized over %d seeds, want %d", h, m.N, len(seeds))
		}
		if m.Mean <= 0 {
			t.Errorf("%s mean %.2f%% — evaluated series must not read as zero", h, m.Mean)
		}
	}
	if _, ok := res.Matched["heur1"]; ok {
		t.Error("heur1 reported despite not being evaluated")
	}
	var sb strings.Builder
	if err := res.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	table := sb.String()
	for _, h := range want {
		if !strings.Contains(table, h) {
			t.Errorf("table missing %s:\n%s", h, table)
		}
	}
	if strings.Contains(table, "heur1") {
		t.Errorf("table reports unevaluated heur1:\n%s", table)
	}
}

// Regression for the same bug in PointResult.SeriesNames and the sweep
// reporters: a custom heuristic set was misreported as the paper's four.
func TestSeriesNamesCustomSet(t *testing.T) {
	cfg := smallConfig()
	cfg.IncludeReferrer = true
	cfg.heuristics = customSet
	p, err := evaluatePoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"heur2", "heur4", "heurR", "zz-custom"}
	if got := p.SeriesNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SeriesNames = %v, want %v", got, want)
	}
	exp := Experiment{Name: "mini", Title: "mini", Variable: "STP",
		Values: []float64{0.05}, Base: cfg}
	res, err := exp.RunWith(RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var table, csv strings.Builder
	if err := res.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, h := range want {
		if !strings.Contains(table.String(), h) {
			t.Errorf("table missing %s:\n%s", h, table.String())
		}
	}
	if strings.Contains(table.String(), "heur1") || strings.Contains(csv.String(), "heur1") {
		t.Error("reports include unevaluated heur1")
	}
	if !strings.HasPrefix(csv.String(), "stp,heur2_matched,heur2_exists,heur4_matched") {
		t.Errorf("csv header = %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
	// An empty point still renders the paper's four column headers.
	empty := &PointResult{}
	if got := empty.SeriesNames(); !reflect.DeepEqual(got, HeuristicNames) {
		t.Errorf("empty SeriesNames = %v", got)
	}
}

// Sharing one generated topology across points must equal regenerating it
// per point (generation is deterministic in topologySeed).
func TestEvaluatePointOnSharedTopology(t *testing.T) {
	cfg := smallConfig()
	direct, err := evaluatePoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Topology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := EvaluatePointOn(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, shared) {
		t.Error("shared-topology evaluation differs from per-point generation")
	}
}
