package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/metrics"
	"smartsra/internal/webgraph"
)

// A Pipeline is documented safe for concurrent use; the process-wide
// metrics counters must stay exact when many goroutines process logs at
// once (run under -race).
func TestPipelineMetricsUnderConcurrentUse(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	p, err := NewPipeline(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	log := strings.Join([]string{
		`10.0.0.1 - - [02/Jan/2006:12:00:00 +0000] "GET /P1.html HTTP/1.1" 200 100`,
		`10.0.0.1 - - [02/Jan/2006:12:02:00 +0000] "GET /P13.html HTTP/1.1" 200 100`,
		`10.0.0.1 - - [02/Jan/2006:12:05:00 +0000] "GET /P34.html HTTP/1.1" 200 100`,
	}, "\n")

	before := metrics.Default.Snapshot()
	ref, err := p.ProcessLog(nil, strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, per = 8, 20
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				res, err := p.ProcessLog(nil, strings.NewReader(log))
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Sessions) != len(ref.Sessions) {
					t.Errorf("sessions = %d, want %d", len(res.Sessions), len(ref.Sessions))
					return
				}
			}
		}()
	}
	wg.Wait()

	after := metrics.Default.Snapshot()
	runs := int64(goroutines*per + 1) // + the reference run
	if got := after.Counters["core.pipeline.records"] - before.Counters["core.pipeline.records"]; got != runs*int64(ref.Stats.Records) {
		t.Errorf("core.pipeline.records delta = %d, want %d", got, runs*int64(ref.Stats.Records))
	}
	if got := after.Counters["core.pipeline.sessions"] - before.Counters["core.pipeline.sessions"]; got != runs*int64(len(ref.Sessions)) {
		t.Errorf("core.pipeline.sessions delta = %d, want %d", got, runs*int64(len(ref.Sessions)))
	}
	if got := after.Counters["clf.scanner.records"] - before.Counters["clf.scanner.records"]; got != runs*int64(ref.Stats.Records) {
		t.Errorf("clf.scanner.records delta = %d, want %d", got, runs*int64(ref.Stats.Records))
	}
}

func TestTailMetrics(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	tail, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.Default.Snapshot()
	base := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	for i, uri := range []string{"/P1.html", "/P13.html", "/P34.html"} {
		tail.Push(clf.Record{
			Host: "10.0.0.1", Time: base.Add(time.Duration(i) * time.Minute),
			Method: "GET", URI: uri, Protocol: "HTTP/1.1", Status: 200,
		})
	}
	sessions := tail.Flush()
	after := metrics.Default.Snapshot()
	if got := after.Counters["core.tail.records"] - before.Counters["core.tail.records"]; got != 3 {
		t.Errorf("core.tail.records delta = %d, want 3", got)
	}
	want := int64(len(sessions))
	if want == 0 {
		t.Fatal("tail produced no sessions")
	}
	if got := after.Counters["core.tail.sessions"] - before.Counters["core.tail.sessions"]; got != want {
		t.Errorf("core.tail.sessions delta = %d, want %d", got, want)
	}
}

// The buffer-depth gauges: entries buffered rises with pushes, falls when
// bursts close, and the per-user depth watermark records the deepest burst.
func TestTailBufferedGauges(t *testing.T) {
	g, _ := webgraph.PaperFigure1()
	tail, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.Default.Snapshot()
	base := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	push := func(host, uri string, at time.Time) []clf.Record {
		rec := clf.Record{Host: host, Time: at, Method: "GET", URI: uri,
			Protocol: "HTTP/1.1", Status: 200}
		tail.Push(rec)
		return nil
	}
	push("10.0.0.1", "/P1.html", base)
	push("10.0.0.1", "/P13.html", base.Add(time.Minute))
	push("10.0.0.1", "/P34.html", base.Add(2*time.Minute))
	push("10.0.0.2", "/P1.html", base.Add(time.Minute))
	if got := tail.Buffered(); got != 4 {
		t.Errorf("Buffered = %d, want 4", got)
	}
	mid := metrics.Default.Snapshot()
	if got := mid.Gauges["core.tail.buffered.entries"] - before.Gauges["core.tail.buffered.entries"]; got != 4 {
		t.Errorf("buffered.entries delta = %d, want 4", got)
	}
	if got := mid.Gauges["core.tail.buffered.maxdepth"]; got < 3 {
		t.Errorf("buffered.maxdepth = %d, want >= 3", got)
	}
	// A push beyond rho closes user 1's burst: its 3 entries drain, the new
	// entry joins a fresh burst. 13 minutes after user 2's request it is not
	// 2ρ past it, so the log's clock leaves user 2 open.
	if out := tail.Push(clf.Record{Host: "10.0.0.1", Time: base.Add(14 * time.Minute),
		Method: "GET", URI: "/P1.html", Protocol: "HTTP/1.1", Status: 200}); len(out) == 0 {
		t.Fatal("burst close emitted no sessions")
	}
	if got := tail.Buffered(); got != 2 {
		t.Errorf("Buffered after close = %d, want 2", got)
	}
	tail.Flush()
	if got := tail.Buffered(); got != 0 {
		t.Errorf("Buffered after Flush = %d, want 0", got)
	}
	after := metrics.Default.Snapshot()
	if got := after.Gauges["core.tail.buffered.entries"] - before.Gauges["core.tail.buffered.entries"]; got != 0 {
		t.Errorf("buffered.entries did not return to baseline: delta = %d", got)
	}
}
