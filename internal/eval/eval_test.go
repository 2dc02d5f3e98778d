package eval

import (
	"strings"
	"testing"
	"time"

	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

var t0 = time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)

func mk(user string, pages ...int) session.Session {
	s := session.Session{User: user}
	for i, p := range pages {
		s.Entries = append(s.Entries, session.Entry{
			Page: webgraph.PageID(p),
			Time: t0.Add(time.Duration(i) * time.Minute),
		})
	}
	return s
}

func TestAccuracyValue(t *testing.T) {
	if (Accuracy{}).Value() != 0 {
		t.Error("zero-real accuracy not 0")
	}
	a := Accuracy{Real: 4, Captured: 3}
	if a.Value() != 0.75 || a.Percent() != 75 {
		t.Errorf("Value/Percent = %v/%v", a.Value(), a.Percent())
	}
	if !strings.Contains(a.String(), "3/4") {
		t.Errorf("String = %q", a.String())
	}
}

func TestScoreSeparatesUsers(t *testing.T) {
	real := []session.Session{mk("alice", 1, 2), mk("bob", 1, 2)}
	cands := []session.Session{mk("alice", 0, 1, 2, 3)}
	acc := Score(real, cands)
	if acc.Captured != 1 || acc.Real != 2 {
		t.Errorf("Score = %+v; bob must not be captured by alice's session", acc)
	}
}

func TestScoreCountsEachRealOnce(t *testing.T) {
	real := []session.Session{mk("u", 1, 2)}
	cands := []session.Session{mk("u", 1, 2), mk("u", 0, 1, 2)}
	if acc := Score(real, cands); acc.Captured != 1 {
		t.Errorf("double-counted: %+v", acc)
	}
}

func TestScoreMatchedUsesEachCandidateOnce(t *testing.T) {
	// One candidate captures both real sessions; matched credits only one.
	real := []session.Session{mk("u", 1, 2), mk("u", 3, 4)}
	cands := []session.Session{mk("u", 1, 2, 3, 4)}
	if acc := Score(real, cands); acc.Captured != 2 {
		t.Errorf("exists metric should capture both: %+v", acc)
	}
	if acc := ScoreMatched(real, cands); acc.Captured != 1 {
		t.Errorf("matched metric should capture one: %+v", acc)
	}
}

func TestScoreMatchedFindsAugmentingPaths(t *testing.T) {
	// R1 is capturable by H1 and H2; R2 only by H1. A greedy assignment that
	// gives H1 to R1 first must be corrected by an augmenting path so both
	// count.
	r1 := mk("u", 1, 2)
	r2 := mk("u", 2, 3)
	h1 := mk("u", 1, 2, 3) // captures r1 and r2
	h2 := mk("u", 0, 1, 2) // captures r1 only
	acc := ScoreMatched([]session.Session{r1, r2}, []session.Session{h1, h2})
	if acc.Captured != 2 {
		t.Errorf("maximum matching should capture both: %+v", acc)
	}
}

func TestScoreMatchedNoCandidates(t *testing.T) {
	acc := ScoreMatched([]session.Session{mk("u", 1)}, nil)
	if acc.Captured != 0 || acc.Real != 1 {
		t.Errorf("ScoreMatched(nil candidates) = %+v", acc)
	}
}

func TestSummarize(t *testing.T) {
	if got := Summarize(nil); got.Sessions != 0 || got.MeanLength != 0 {
		t.Errorf("Summarize(nil) = %+v", got)
	}
	st := Summarize([]session.Session{mk("u", 1), mk("u", 1, 2, 3), mk("u", 1, 2)})
	if st.Sessions != 3 || st.MaxLength != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.MeanLength != 2 || st.MedianLength != 2 {
		t.Errorf("mean/median = %v/%v", st.MeanLength, st.MedianLength)
	}
	even := Summarize([]session.Session{mk("u", 1), mk("u", 1, 2, 3)})
	if even.MedianLength != 2 {
		t.Errorf("even median = %v", even.MedianLength)
	}
	if !strings.Contains(st.String(), "sessions=3") {
		t.Errorf("String = %q", st.String())
	}
}

// smallConfig returns a fast evaluation configuration.
// evaluatePoint generates cfg's topology and evaluates one point on it.
func evaluatePoint(cfg RunConfig) (*PointResult, error) {
	g, err := Topology(cfg)
	if err != nil {
		return nil, err
	}
	return EvaluatePointOn(g, cfg)
}

func smallConfig() RunConfig {
	cfg := PaperDefaults()
	cfg.Topology = webgraph.TopologyConfig{
		Pages: 80, AvgOutDegree: 6, StartPageFraction: 0.1,
	}
	cfg.Params.Agents = 150
	return cfg
}

func TestEvaluatePoint(t *testing.T) {
	p, err := evaluatePoint(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.RealSessions == 0 {
		t.Fatal("no real sessions")
	}
	for _, h := range HeuristicNames {
		m, ok := p.Matched[h]
		if !ok {
			t.Fatalf("heuristic %s missing from results", h)
		}
		if v := m.Value(); v < 0 || v > 1 {
			t.Errorf("%s matched accuracy %v out of range", h, v)
		}
		if p.Exists[h].Value() < m.Value() {
			t.Errorf("%s exists metric below matched metric", h)
		}
		if p.Reconstructed[h].Sessions == 0 {
			t.Errorf("%s reconstructed nothing", h)
		}
	}
}

func TestEvaluatePointDefaultsTopology(t *testing.T) {
	cfg := RunConfig{Params: simulator.PaperParams()}
	cfg.Params.Agents = 30
	p, err := evaluatePoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.RealSessions == 0 {
		t.Error("zero-value topology did not default to PaperTopology")
	}
}

// The CLF round trip must be lossless for simulated logs (whole-second
// timestamps, resolvable URIs): accuracies through the full parse+clean
// pipeline equal the direct ones.
func TestEvaluatePointViaCLFMatchesDirect(t *testing.T) {
	direct, err := evaluatePoint(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.ViaCLF = true
	piped, err := evaluatePoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range HeuristicNames {
		if direct.Matched[h] != piped.Matched[h] {
			t.Errorf("%s: CLF pipeline changed matched accuracy: %v vs %v",
				h, piped.Matched[h], direct.Matched[h])
		}
		if direct.Exists[h] != piped.Exists[h] {
			t.Errorf("%s: CLF pipeline changed exists accuracy: %v vs %v",
				h, piped.Exists[h], direct.Exists[h])
		}
	}
}

func TestExperimentRun(t *testing.T) {
	base := smallConfig()
	exp := Experiment{
		Name: "mini", Title: "mini sweep", Variable: "STP",
		Values: []float64{0.05, 0.2}, Base: base,
	}
	res, err := exp.RunWith(RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].X != 0.05 || res.Points[1].X != 0.2 {
		t.Errorf("swept values wrong: %v, %v", res.Points[0].X, res.Points[1].X)
	}
	bad := exp
	bad.Variable = "XYZ"
	if _, err := bad.RunWith(RunOptions{Workers: 1}); err == nil {
		t.Error("unknown variable accepted")
	}
}

func TestFigureDefinitions(t *testing.T) {
	base := PaperDefaults()
	f8 := Figure8(base)
	if len(f8.Values) != 20 || f8.Values[0] != 0.01 || f8.Values[19] != 0.20 {
		t.Errorf("figure8 sweep = %v", f8.Values)
	}
	if f8.Variable != "STP" {
		t.Errorf("figure8 variable = %q", f8.Variable)
	}
	f9 := Figure9(base)
	if len(f9.Values) != 10 || f9.Values[0] != 0 || f9.Values[9] != 0.90 {
		t.Errorf("figure9 sweep = %v", f9.Values)
	}
	f10 := Figure10(base)
	if f10.Variable != "NIP" || len(f10.Values) != 10 {
		t.Errorf("figure10 = %+v", f10)
	}
}

func TestReportWriters(t *testing.T) {
	base := smallConfig()
	exp := Experiment{
		Name: "mini", Title: "mini sweep", Variable: "LPP",
		Values: []float64{0, 0.5}, Base: base,
	}
	res, err := exp.RunWith(RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var table, csv, stats strings.Builder
	if err := res.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteSessionStats(&stats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "heur4") || !strings.Contains(table.String(), "LPP") {
		t.Errorf("table missing headers:\n%s", table.String())
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "lpp,heur1_matched,heur1_exists") {
		t.Errorf("csv header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if got := strings.Count(l, ","); got != 9 {
			t.Errorf("csv row %q has %d commas, want 9", l, got)
		}
	}
	if !strings.Contains(stats.String(), "meanLen") {
		t.Errorf("session stats output:\n%s", stats.String())
	}
}

func TestCheckShape(t *testing.T) {
	mkPoint := func(x, h1, h2, h3, h4 float64) PointResult {
		toAcc := func(v float64) Accuracy {
			return Accuracy{Real: 1000, Captured: int(v * 1000)}
		}
		return PointResult{
			X: x,
			Matched: map[string]Accuracy{
				"heur1": toAcc(h1), "heur2": toAcc(h2),
				"heur3": toAcc(h3), "heur4": toAcc(h4),
			},
		}
	}
	r := &SweepResult{Points: []PointResult{
		mkPoint(0.1, 0.30, 0.28, 0.32, 0.45),
		mkPoint(0.5, 0.20, 0.18, 0.22, 0.35),
	}}
	rep := r.CheckShape()
	if !rep.SmartSRAAlwaysBest || !rep.SmartSRAAlwaysBeatsTime {
		t.Errorf("shape = %+v", rep)
	}
	if rep.MinRelativeMargin < 0.40 || rep.MinRelativeMargin > 0.60 {
		t.Errorf("margin = %v", rep.MinRelativeMargin)
	}
	if !rep.MonotoneDecline {
		t.Error("decline not detected")
	}
	r2 := &SweepResult{Points: []PointResult{
		mkPoint(0.1, 0.30, 0.28, 0.50, 0.45),
		mkPoint(0.5, 0.35, 0.18, 0.22, 0.40),
	}}
	rep2 := r2.CheckShape()
	if rep2.SmartSRAAlwaysBest {
		t.Error("heur3 win at point 1 not detected")
	}
	if !rep2.SmartSRAAlwaysBeatsTime {
		t.Error("heur4 beats time heuristics everywhere here")
	}
	if rep2.MonotoneDecline {
		t.Error("heur1 rose; decline should be false")
	}
	if got := (&SweepResult{}).CheckShape(); got.SmartSRAAlwaysBest {
		t.Error("empty sweep should report zero shape")
	}
}

// The headline reproduction check: at Table 5 defaults (scaled down for test
// speed), Smart-SRA must beat every other heuristic on the matched metric,
// and the time heuristics by a wide margin.
func TestPaperShapeAtDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed shape check")
	}
	cfg := PaperDefaults()
	cfg.Params.Agents = 800
	p, err := evaluatePoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v4 := p.Matched["heur4"].Value()
	for _, h := range HeuristicNames[:3] {
		if v := p.Matched[h].Value(); v4 <= v {
			t.Errorf("heur4 (%.3f) not above %s (%.3f) at paper defaults", v4, h, v)
		}
	}
	for _, h := range []string{"heur1", "heur2"} {
		if v := p.Matched[h].Value(); v4 < 1.4*v {
			t.Errorf("heur4 (%.3f) less than 1.4x %s (%.3f)", v4, h, v)
		}
	}
}

func TestReplicate(t *testing.T) {
	cfg := smallConfig()
	cfg.Params.Agents = 80
	res, err := ReplicateWith(cfg, []int64{1, 2, 3}, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 {
		t.Fatalf("seeds = %v", res.Seeds)
	}
	for _, h := range HeuristicNames {
		m := res.Matched[h]
		if m.N != 3 {
			t.Errorf("%s matched n = %d", h, m.N)
		}
		if m.Mean < 0 || m.Mean > 100 {
			t.Errorf("%s mean %% out of range: %v", h, m.Mean)
		}
		if res.Exists[h].Mean < m.Mean-1e-9 {
			t.Errorf("%s exists mean below matched mean", h)
		}
	}
	// Different seeds should produce at least some spread somewhere.
	spread := 0.0
	for _, h := range HeuristicNames {
		spread += res.Matched[h].StdDev
	}
	if spread == 0 {
		t.Error("no variance across seeds at all")
	}
	var sb strings.Builder
	if err := res.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "±") || !strings.Contains(sb.String(), "heur4") {
		t.Errorf("table:\n%s", sb.String())
	}
	if _, err := ReplicateWith(cfg, nil, RunOptions{Workers: 1}); err == nil {
		t.Error("empty seed list accepted")
	}
}

// The upper-bound claim: on simulated traffic with logged referrers, the
// referrer chain ("heurR") must beat Smart-SRA on the matched metric.
func TestIncludeReferrerAddsUpperBound(t *testing.T) {
	cfg := smallConfig()
	cfg.IncludeReferrer = true
	p, err := evaluatePoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := p.SeriesNames()
	if names[len(names)-1] != "heurR" {
		t.Fatalf("series = %v", names)
	}
	if p.Matched["heurR"].Value() <= p.Matched["heur4"].Value() {
		t.Errorf("referrer chain %.3f not above Smart-SRA %.3f",
			p.Matched["heurR"].Value(), p.Matched["heur4"].Value())
	}
	// Reporters include the extra column.
	exp := Experiment{Name: "mini", Title: "mini", Variable: "STP",
		Values: []float64{0.1}, Base: cfg}
	res, err := exp.RunWith(RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	if err := res.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "heurR") {
		t.Errorf("table missing heurR:\n%s", table.String())
	}
	var svg strings.Builder
	if err := res.WriteSVG(&svg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), ">heurR</text>") {
		t.Error("SVG legend missing heurR")
	}
	// Without the flag, only the four series appear.
	plain, err := evaluatePoint(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.SeriesNames(); len(got) != 4 {
		t.Errorf("plain series = %v", got)
	}
}

// TestFigureShapesReproduce pins the headline reproduction claims at test
// scale: Smart-SRA beats both time heuristics at every sweep point of all
// three figures, and the LPP sweep declines monotonically end to end.
func TestFigureShapesReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed shape check")
	}
	base := PaperDefaults()
	base.Params.Agents = 400
	sweeps := []Experiment{Figure8(base), Figure9(base), Figure10(base)}
	// Thin the sweeps for speed; endpoints plus a midpoint keep the shape.
	sweeps[0].Values = []float64{0.01, 0.10, 0.20}
	sweeps[1].Values = []float64{0, 0.40, 0.90}
	sweeps[2].Values = []float64{0, 0.40, 0.90}
	for _, e := range sweeps {
		res, err := e.RunWith(RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		shape := res.CheckShape()
		if !shape.SmartSRAAlwaysBeatsTime {
			t.Errorf("%s: Smart-SRA does not beat the time heuristics everywhere", e.Name)
		}
		if e.Name == "figure9" && !shape.MonotoneDecline {
			t.Errorf("%s: accuracies do not decline with LPP", e.Name)
		}
		if e.Name != "figure10" && !shape.SmartSRAAlwaysBest {
			t.Errorf("%s: Smart-SRA not best everywhere", e.Name)
		}
	}
}
