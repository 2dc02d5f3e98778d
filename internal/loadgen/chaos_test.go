package loadgen

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"smartsra/internal/webserver"
)

// startHardenedServer runs a real http.Server with a read-header deadline
// and per-IP admission — the defenses chaos mode exists to exercise.
func startHardenedServer(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 200 * time.Millisecond}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

// TestChaosClassification runs every adversary against a hardened server
// and pins the classification: slowloris connections all get cut off by the
// read-header deadline, floods split into admitted-within-budget plus 429s,
// churn completes, and malformed request lines are all refused.
func TestChaosClassification(t *testing.T) {
	const burst = 3
	adm := webserver.NewAdmission(webserver.AdmissionConfig{
		PerIPRate:         0.001, // effectively no refill within the test
		PerIPBurst:        burst,
		TrustForwardedFor: true,
	})
	base := startHardenedServer(t, adm.Wrap(http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })))

	rep, err := RunChaos(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos: %s", rep)

	if rep.SlowOpened != slowConns {
		t.Errorf("slowloris opened %d connections, want %d", rep.SlowOpened, slowConns)
	}
	if rep.SlowServerClosed != rep.SlowOpened {
		t.Errorf("server closed %d of %d slowloris connections; the read-header deadline should kill them all",
			rep.SlowServerClosed, rep.SlowOpened)
	}
	if rep.Flood.Sent != floodIPs*floodPerIP {
		t.Errorf("flood sent %d, want %d", rep.Flood.Sent, floodIPs*floodPerIP)
	}
	if got := rep.Flood.Accepted + rep.Flood.Rejected + rep.Flood.Shed + rep.Flood.Errors; got != rep.Flood.Sent {
		t.Errorf("flood classification leaks: %d classified of %d sent", got, rep.Flood.Sent)
	}
	// Each flooding IP gets its burst admitted and (nearly) everything else
	// 429'd; the tiny refill rate can admit at most a request or two extra.
	if rep.Flood.Accepted < floodIPs*burst {
		t.Errorf("flood accepted %d, want at least the %d budgeted", rep.Flood.Accepted, floodIPs*burst)
	}
	if rep.Flood.Rejected < int64(floodIPs*(floodPerIP-burst)-floodIPs) {
		t.Errorf("flood rejected %d, want ~%d over-budget requests 429'd",
			rep.Flood.Rejected, floodIPs*(floodPerIP-burst))
	}
	if rep.ChurnCycles != churnCycles {
		t.Errorf("churn completed %d cycles, want %d", rep.ChurnCycles, churnCycles)
	}
	if rep.MalformedSent != malformedConns || rep.MalformedRefused != malformedConns {
		t.Errorf("malformed: %d/%d refused, want all %d",
			rep.MalformedRefused, rep.MalformedSent, malformedConns)
	}
}

// TestScrapeMetrics round-trips the /debug/metrics text format through the
// scraper, including a labeled series.
func TestScrapeMetrics(t *testing.T) {
	base := startHardenedServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(
			"counter serve.requests 42\n" +
				"gauge   serve.conns.open 0\n" +
				"counter serve.admission.requests{outcome=\"admitted\"} 7\n" +
				"hist    serve.request.seconds count=3\n"))
	}))
	m, err := ScrapeMetrics(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"serve.requests":   42,
		"serve.conns.open": 0,
		`serve.admission.requests{outcome="admitted"}`: 7,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("scraped %s = %d, want %d", k, m[k], v)
		}
	}
	if len(m) != len(want) {
		t.Errorf("scraped %d entries, want %d: %v", len(m), len(want), m)
	}
}
