// Command benchgate gates the JSON reports of CI's load and chaos smokes —
// conservation checks that hold on any hardware. (Speed is not its business:
// bench/ measures that, paired against the parent commit.)
//
// Usage:
//
//	benchgate loadgen_ci.json chaos_ci.json ...
//
// A cmd/loadgen JSON report (tool == "loadgen") must conserve:
// accepted + shed + rejected + errors must equal sent exactly, errors must
// be zero (the smoke replays against a healthy local server), and the p99
// latency must be positive (the histogram measured something). Absolute
// latency ceilings are advisory on a 1-core runner (gomaxprocs 1 in the
// JSON).
//
// A chaos report (tool == "loadgen-chaos", from cmd/loadgen -chaos) is gated
// on degradation-and-recovery invariants instead: exact conservation (every
// logged request read back by the live sessionizer, serve_requests ==
// serve_ingest_records), every adversary defended against (slowloris all
// server-closed, floods 429'd, malformed refused), and admission metrics that
// actually moved. These hold on any hardware and always gate.
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "benchgate: no report JSON files given")
		os.Exit(2)
	}
	failed := false
	for _, path := range os.Args[1:] {
		bad, err := check(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", path, err)
			os.Exit(2)
		}
		failed = failed || bad
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL — see above")
		os.Exit(1)
	}
}

// check reports whether path holds a gated violation (advisory findings are
// printed but do not fail).
func check(path string) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		return false, err
	}
	switch tool, _ := fields["tool"].(string); tool {
	case "loadgen":
		cores, _ := fields["gomaxprocs"].(float64)
		return checkLoadgen(path, fields, cores <= 1)
	case "loadgen-chaos":
		return checkLoadgenChaos(path, fields)
	default:
		return false, fmt.Errorf("tool %q is neither a loadgen nor a loadgen-chaos report", tool)
	}
}

// loadgenP99Ceiling is the advisory latency threshold for the CI load smoke.
// On a multi-core runner exceeding it fails the gate; on one core the
// whole latency distribution is at the scheduler's mercy, so it only warns.
const loadgenP99Ceiling = 0.25 // seconds

// checkLoadgen gates a cmd/loadgen JSON report. Two checks hold on any
// hardware and always fail the build: exact accounting conservation
// (accepted + shed + errors == sent — every request ended in exactly one
// bucket, nothing was double-counted or silently dropped) and a live
// latency histogram (p99 > 0 — the replay actually measured something).
// Errors must be zero too: the smoke runs against a healthy local server,
// so a transport failure means the harness broke. Absolute latency
// thresholds are advisory on a 1-core runner.
func checkLoadgen(path string, fields map[string]any, advisory bool) (bool, error) {
	num := func(key string) (float64, error) {
		v, ok := fields[key].(float64)
		if !ok {
			return 0, fmt.Errorf("loadgen report field %q missing or not a number", key)
		}
		return v, nil
	}
	var sent, accepted, shed, errs, p99 float64
	for key, dst := range map[string]*float64{
		"sent": &sent, "accepted": &accepted, "shed": &shed,
		"errors": &errs, "p99_seconds": &p99,
	} {
		v, err := num(key)
		if err != nil {
			return false, err
		}
		*dst = v
	}
	// rejected (429, per-IP admission) is absent from reports written before
	// admission control existed; treat missing as zero.
	rejected, _ := fields["rejected"].(float64)

	bad := false
	if int64(accepted)+int64(shed)+int64(rejected)+int64(errs) != int64(sent) || sent <= 0 {
		fmt.Printf("%s: accounting does not conserve: accepted %.0f + shed %.0f + rejected %.0f + errors %.0f != sent %.0f\n",
			path, accepted, shed, rejected, errs, sent)
		bad = true
	} else {
		fmt.Printf("%s: accepted %.0f + shed %.0f + rejected %.0f + errors %.0f == sent %.0f ok\n",
			path, accepted, shed, rejected, errs, sent)
	}
	if errs != 0 {
		fmt.Printf("%s: errors = %.0f against a healthy local server — the harness is broken\n", path, errs)
		bad = true
	}
	if p99 <= 0 {
		fmt.Printf("%s: p99_seconds = %v — the latency histogram is empty or broken\n", path, p99)
		bad = true
	}
	switch {
	case p99 <= 0:
	case p99 <= loadgenP99Ceiling:
		fmt.Printf("%s: p99_seconds = %.4f ok (<= %.2f)\n", path, p99, loadgenP99Ceiling)
	case advisory:
		fmt.Printf("%s: p99_seconds = %.4f above %.2f on a 1-core runner — advisory only\n",
			path, p99, loadgenP99Ceiling)
	default:
		fmt.Printf("%s: p99_seconds = %.4f VIOLATES the <= %.2f ceiling\n", path, p99, loadgenP99Ceiling)
		bad = true
	}
	return bad, nil
}

// checkLoadgenChaos gates a cmd/loadgen -chaos JSON report: a replay plus
// the adversarial suite against a hardened serve, with the server's own
// /debug/metrics scraped into the report once its live sessionizer caught up.
// Everything here holds on any hardware:
//
//   - client accounting conserves exactly, including the 429 bucket
//   - server conservation is exact: every logged request was read back from
//     the access log into the live sessionizer (serve_requests ==
//     serve_ingest_records)
//   - each adversary actually ran and was defended against: slowloris
//     connections all server-closed, flood requests classified with some
//     429s, malformed lines all refused
//   - admission metrics moved (the middleware was in the path, not bypassed)
func checkLoadgenChaos(path string, fields map[string]any) (bool, error) {
	num := func(key string) (float64, error) {
		v, ok := fields[key].(float64)
		if !ok {
			return 0, fmt.Errorf("chaos report field %q missing or not a number", key)
		}
		return v, nil
	}
	need := map[string]float64{}
	for _, key := range []string{
		"sent", "accepted", "shed", "rejected", "errors",
		"serve_requests", "serve_ingest_records",
		"admission_admitted", "admission_ip_limited",
		"chaos_slow_opened", "chaos_slow_server_closed",
		"chaos_flood_sent", "chaos_flood_accepted", "chaos_flood_rejected",
		"chaos_flood_shed", "chaos_flood_errors",
		"chaos_churn_cycles", "chaos_malformed_sent", "chaos_malformed_refused",
	} {
		v, err := num(key)
		if err != nil {
			return false, err
		}
		need[key] = v
	}

	bad := false
	fail := func(format string, args ...any) {
		fmt.Printf("%s: "+format+"\n", append([]any{path}, args...)...)
		bad = true
	}
	ok := func(format string, args ...any) {
		fmt.Printf("%s: "+format+"\n", append([]any{path}, args...)...)
	}

	// Client-side conservation, all four outcome buckets.
	sum := need["accepted"] + need["shed"] + need["rejected"] + need["errors"]
	if int64(sum) != int64(need["sent"]) || need["sent"] <= 0 {
		fail("replay accounting does not conserve: %.0f classified of %.0f sent", sum, need["sent"])
	} else {
		ok("replay accounting conserves: accepted %.0f + shed %.0f + rejected %.0f + errors %.0f == sent %.0f",
			need["accepted"], need["shed"], need["rejected"], need["errors"], need["sent"])
	}

	// Server-side conservation: the log is the sessionizer's input.
	if need["serve_requests"] != need["serve_ingest_records"] {
		fail("conservation violated: serve_requests %.0f != serve_ingest_records %.0f",
			need["serve_requests"], need["serve_ingest_records"])
	} else {
		ok("conservation exact: serve_requests %.0f == serve_ingest_records %.0f",
			need["serve_requests"], need["serve_ingest_records"])
	}

	// Each adversary must have run AND been defended against — a chaos run
	// that attacked nothing would pass every conservation check vacuously.
	if need["chaos_slow_opened"] <= 0 {
		fail("slowloris never connected — the adversary did not run")
	} else if need["chaos_slow_server_closed"] != need["chaos_slow_opened"] {
		fail("server closed %.0f of %.0f slowloris connections — the read-header deadline is not holding",
			need["chaos_slow_server_closed"], need["chaos_slow_opened"])
	} else {
		ok("slowloris defense held: %.0f/%.0f connections server-closed",
			need["chaos_slow_server_closed"], need["chaos_slow_opened"])
	}
	floodSum := need["chaos_flood_accepted"] + need["chaos_flood_rejected"] +
		need["chaos_flood_shed"] + need["chaos_flood_errors"]
	if need["chaos_flood_sent"] <= 0 {
		fail("flood never fired — the adversary did not run")
	} else if int64(floodSum) != int64(need["chaos_flood_sent"]) {
		fail("flood classification leaks: %.0f classified of %.0f sent", floodSum, need["chaos_flood_sent"])
	} else if need["chaos_flood_rejected"] <= 0 {
		fail("no flood request was ever 429'd — per-IP admission is not limiting")
	} else {
		ok("flood contained: %.0f sent, %.0f rejected (429), %.0f admitted",
			need["chaos_flood_sent"], need["chaos_flood_rejected"], need["chaos_flood_accepted"])
	}
	if need["chaos_malformed_sent"] <= 0 {
		fail("malformed adversary did not run")
	} else if need["chaos_malformed_refused"] != need["chaos_malformed_sent"] {
		fail("only %.0f of %.0f malformed request lines refused",
			need["chaos_malformed_refused"], need["chaos_malformed_sent"])
	} else {
		ok("malformed lines all refused: %.0f/%.0f", need["chaos_malformed_refused"], need["chaos_malformed_sent"])
	}
	if need["chaos_churn_cycles"] <= 0 {
		fail("connection churn did not run")
	}

	// Admission metrics must have moved: the middleware was in the path.
	if need["admission_admitted"] <= 0 || need["admission_ip_limited"] <= 0 {
		fail("admission metrics flat (admitted %.0f, ip_limited %.0f) — the gate was bypassed or disabled",
			need["admission_admitted"], need["admission_ip_limited"])
	} else {
		ok("admission exercised: %.0f admitted, %.0f ip-limited",
			need["admission_admitted"], need["admission_ip_limited"])
	}
	return bad, nil
}
