package metrics

import (
	"strings"
	"testing"
)

func TestWithLabelsCanonical(t *testing.T) {
	a := WithLabels("tail.reconstruct.seconds", "heur", "smartsra", "mode", "stream")
	b := WithLabels("tail.reconstruct.seconds", "mode", "stream", "heur", "smartsra")
	if a != b {
		t.Fatalf("label order changed the key: %q vs %q", a, b)
	}
	if want := `tail.reconstruct.seconds{heur="smartsra",mode="stream"}`; a != want {
		t.Fatalf("key = %q, want %q", a, want)
	}
	if got := WithLabels("m"); got != "m" {
		t.Errorf("no labels: %q", got)
	}
	if got := WithLabels("m", "k"); got != "m" {
		t.Errorf("odd kv should drop the trailing key: %q", got)
	}
	if got := WithLabels("m", "k", `a"b\c`); got != `m{k="a\"b\\c"}` {
		t.Errorf("escaping: %q", got)
	}
}

func TestLabeledSeriesIndependent(t *testing.T) {
	r := NewRegistry()
	r.GetCounter(WithLabels("hits", "h", "a")).Add(3)
	r.GetCounter(WithLabels("hits", "h", "b")).Add(5)
	s := r.Snapshot()
	if s.Counters[`hits{h="a"}`] != 3 || s.Counters[`hits{h="b"}`] != 5 {
		t.Fatalf("labeled counters not independent: %+v", s.Counters)
	}
}

func TestWritePrometheusGroupsLabeledSeries(t *testing.T) {
	r := NewRegistry()
	r.GetCounter("plain.count").Add(1)
	r.GetCounter(WithLabels("plain.count", "heur", "heur1")).Add(2)
	r.GetCounter(WithLabels("plain.count", "heur", "heur4")).Add(3)
	r.GetHistogramBuckets(WithLabels("lat.seconds", "heur", "heur4"), []float64{1, 2}).Observe(1.5)

	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	if n := strings.Count(out, "# TYPE plain_count counter"); n != 1 {
		t.Errorf("TYPE line for plain_count appears %d times:\n%s", n, out)
	}
	for _, want := range []string{
		"plain_count 1",
		`plain_count{heur="heur1"} 2`,
		`plain_count{heur="heur4"} 3`,
		`lat_seconds_bucket{heur="heur4",le="1"} 0`,
		`lat_seconds_bucket{heur="heur4",le="2"} 1`,
		`lat_seconds_bucket{heur="heur4",le="+Inf"} 1`,
		`lat_seconds_sum{heur="heur4"} 1.5`,
		`lat_seconds_count{heur="heur4"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteTextPrintsLabeledKeysVerbatim(t *testing.T) {
	r := NewRegistry()
	r.GetCounter(WithLabels("hits", "h", "a")).Inc()
	out := r.Snapshot().String()
	if !strings.Contains(out, `counter hits{h="a"} 1`) {
		t.Errorf("text output:\n%s", out)
	}
}
