package loadgen

import (
	"strings"
	"testing"

	"smartsra/internal/metrics"
)

// latencies is a histogram of 100 responses whose p99 lands inside
// (lo, hi], at lo + 0.99·(hi − lo).
func latencies(lo, hi float64) metrics.HistogramStats {
	return metrics.HistogramStats{Bounds: []float64{lo, hi}, Counts: []int64{0, 100, 0}, Count: 100}
}

// checkInputs is one finished run as Check reads it.
type checkInputs struct {
	rep    Report
	chaos  *ChaosReport
	server map[string]int64
	cores  int
}

// passingReplay and passingChaos are runs every check passes, shaped like
// the CI load smoke and chaos soak.
func passingReplay() checkInputs {
	return checkInputs{
		rep:   Report{Tally: Tally{Sent: 100, Accepted: 90, Shed: 6, Rejected: 4}, Latency: latencies(0.005, 0.01)},
		cores: 4,
	}
}

func passingChaos() checkInputs {
	in := passingReplay()
	in.rep.Errors, in.rep.Sent = 2, 102 // a chaos run is not held to zero errors
	in.chaos = &ChaosReport{
		SlowOpened: 8, SlowServerClosed: 8,
		Flood:       Tally{Sent: 200, Accepted: 95, Rejected: 105},
		ChurnCycles: 100, MalformedSent: 25, MalformedRefused: 25,
	}
	in.server = map[string]int64{
		"serve.requests": 4485, "serve.ingest.records": 4485,
		`serve.admission.requests{outcome="admitted"}`:   4485,
		`serve.admission.requests{outcome="ip_limited"}`: 273,
	}
	return in
}

// TestCheckFailsOnlyWhatBroke starts from a passing run and breaks one input
// per row: exactly that row's check must fail.
func TestCheckFailsOnlyWhatBroke(t *testing.T) {
	cases := []struct {
		name   string
		base   func() checkInputs
		breaks func(*checkInputs)
		fails  string // "" = every check passes
	}{
		{"replay passes", passingReplay, func(*checkInputs) {}, ""},
		{"a request unclassified", passingReplay, func(in *checkInputs) { in.rep.Sent++ }, "replay"},
		{"nothing sent", passingReplay, func(in *checkInputs) { in.rep.Tally = Tally{} }, "replay"},
		{"a transport error", passingReplay, func(in *checkInputs) { in.rep.Sent++; in.rep.Errors++ }, "errors"},
		{"empty histogram", passingReplay, func(in *checkInputs) { in.rep.Latency = metrics.HistogramStats{} }, "p99"},
		{"p99 over the ceiling on 4 cores", passingReplay, func(in *checkInputs) { in.rep.Latency = latencies(0.25, 0.5) }, "p99-ceiling"},
		{"p99 over the ceiling on 1 core", passingReplay, func(in *checkInputs) {
			in.rep.Latency = latencies(0.25, 0.5)
			in.cores = 1
		}, ""},

		{"chaos passes", passingChaos, func(*checkInputs) {}, ""},
		{"chaos replay unclassified", passingChaos, func(in *checkInputs) { in.rep.Accepted-- }, "replay"},
		{"sessionizer behind the log", passingChaos, func(in *checkInputs) { in.server["serve.ingest.records"]-- }, "server"},
		{"slowloris never connected", passingChaos, func(in *checkInputs) {
			in.chaos.SlowOpened, in.chaos.SlowServerClosed = 0, 0
		}, "slowloris"},
		{"a slowloris connection outlived the deadline", passingChaos, func(in *checkInputs) { in.chaos.SlowServerClosed-- }, "slowloris"},
		{"flood never fired", passingChaos, func(in *checkInputs) { in.chaos.Flood = Tally{} }, "flood"},
		{"a flood request unclassified", passingChaos, func(in *checkInputs) { in.chaos.Flood.Sent++ }, "flood"},
		{"no flood request 429'd", passingChaos, func(in *checkInputs) {
			in.chaos.Flood.Accepted += in.chaos.Flood.Rejected
			in.chaos.Flood.Rejected = 0
		}, "flood"},
		{"malformed never ran", passingChaos, func(in *checkInputs) {
			in.chaos.MalformedSent, in.chaos.MalformedRefused = 0, 0
		}, "malformed"},
		{"a malformed line served", passingChaos, func(in *checkInputs) { in.chaos.MalformedRefused-- }, "malformed"},
		{"churn never ran", passingChaos, func(in *checkInputs) { in.chaos.ChurnCycles = 0 }, "churn"},
		{"nothing admitted", passingChaos, func(in *checkInputs) {
			in.server[`serve.admission.requests{outcome="admitted"}`] = 0
		}, "admission"},
		{"no source limited", passingChaos, func(in *checkInputs) {
			delete(in.server, `serve.admission.requests{outcome="ip_limited"}`)
		}, "admission"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.base()
			tc.breaks(&in)
			var failed []string
			for _, r := range Check(in.rep, in.chaos, in.server, in.cores) {
				if r.Failed {
					failed = append(failed, r.Check)
				}
			}
			if got := strings.Join(failed, ","); got != tc.fails {
				t.Errorf("failed checks %q, want %q", got, tc.fails)
			}
		})
	}
}
