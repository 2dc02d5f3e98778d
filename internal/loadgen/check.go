package loadgen

import "fmt"

// p99Ceiling is the replay's p99 latency bound, in seconds. It fails a run
// on a multi-core machine; on one core the whole latency distribution is at
// the scheduler's mercy, so there it only warns.
const p99Ceiling = 0.25

// A Result is the verdict of one check of a finished run.
type Result struct {
	// Check names the check: "replay", "errors", "p99", "p99-ceiling",
	// "server", "slowloris", "flood", "malformed", "churn" or "admission".
	Check  string
	Failed bool
	// Detail gives the numbers the verdict rests on.
	Detail string
}

func (r Result) String() string {
	verdict := "ok  "
	if r.Failed {
		verdict = "FAIL"
	}
	return fmt.Sprintf("check %s %s: %s", verdict, r.Check, r.Detail)
}

// Check holds a finished run to invariants that hold on any hardware and
// returns one Result per check.
//
// A plain replay (chaos nil) runs against a healthy server: every request
// sent must land in exactly one outcome, none of them an error, and the
// latency histogram must have measured something. Its p99 must stay under
// p99Ceiling when cores (GOMAXPROCS) is above 1.
//
// A chaos run is held to degradation and recovery instead: the replay's
// outcomes conserve, the server read every logged request back into its
// live sessionizer, each adversary ran and was defended against, and the
// admission counters moved. server holds the server's counters as
// ScrapeMetrics returned them; a plain replay does not read it.
func Check(rep Report, chaos *ChaosReport, server map[string]int64, cores int) []Result {
	var rs []Result
	check := func(name string, ok bool, format string, args ...any) {
		rs = append(rs, Result{Check: name, Failed: !ok, Detail: fmt.Sprintf(format, args...)})
	}
	check("replay", rep.conserves(), "accepted %d + shed %d + rejected %d + errors %d against sent %d",
		rep.Accepted, rep.Shed, rep.Rejected, rep.Errors, rep.Sent)

	if chaos == nil {
		check("errors", rep.Errors == 0, "%d against a healthy server", rep.Errors)
		p99 := rep.Latency.Quantile(0.99)
		check("p99", p99 > 0, "%.4f s (must be > 0)", p99)
		check("p99-ceiling", p99 <= p99Ceiling || cores <= 1,
			"%.4f s against %.2f s on %d cores (advisory on 1 core)", p99, p99Ceiling, cores)
		return rs
	}

	requests, records := server["serve.requests"], server["serve.ingest.records"]
	check("server", requests == records, "serve.requests %d, serve.ingest.records %d", requests, records)
	// An adversary that did not run would pass its defence vacuously.
	check("slowloris", chaos.SlowOpened > 0 && chaos.SlowServerClosed == chaos.SlowOpened,
		"%d of %d connections server-closed", chaos.SlowServerClosed, chaos.SlowOpened)
	check("flood", chaos.Flood.conserves() && chaos.Flood.Rejected > 0, "%s", chaos.Flood)
	check("malformed", chaos.MalformedSent > 0 && chaos.MalformedRefused == chaos.MalformedSent,
		"%d of %d request lines refused", chaos.MalformedRefused, chaos.MalformedSent)
	check("churn", chaos.ChurnCycles > 0, "%d cycles", chaos.ChurnCycles)
	admitted := server[`serve.admission.requests{outcome="admitted"}`]
	limited := server[`serve.admission.requests{outcome="ip_limited"}`]
	check("admission", admitted > 0 && limited > 0, "%d admitted, %d ip-limited", admitted, limited)
	return rs
}
