package checkpoint

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	_ "time/tzdata" // America/New_York where the system has no zoneinfo

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

var update = flag.Bool("update", false, "rewrite testdata/tail-zones.ckpt")

// TestTailKeepsRecordZones: a time that goes through a core.Tail — held in an
// open burst, closed by Push or Flush, drained, or snapshotted — comes back ==
// to the time it was pushed with: the same instant and the same *Location.
// The log's lines carry -0500/-0400 across New York's spring DST change,
// +0000, -0700 and +0530, interleaved within users, and every fifth record is
// pushed a second time, in UTC, under a user of its own. It runs under the
// process's local zone (CI runs it again under TZ=Asia/Kolkata, where +0530
// lines parse into time.Local) and with time.Local set to America/New_York,
// where the DST lines do and +0000 is a fixed zone. The checkpoint of the
// mid-log snapshot is the same bytes in both: testdata/tail-zones.ckpt.
func TestTailKeepsRecordZones(t *testing.T) {
	ny, err := time.LoadLocation("America/New_York")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		local *time.Location
	}{{"process", time.Local}, {"New_York", ny}} {
		t.Run(tc.name, func(t *testing.T) {
			saved := time.Local
			time.Local = tc.local
			defer func() { time.Local = saved }()
			checkTailZones(t, ny)
		})
	}
}

func checkTailZones(t *testing.T, ny *time.Location) {
	g, _ := webgraph.PaperFigure1()
	records, err := zoneLog(g, ny)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	pushed := map[string][]session.Entry{} // by user, as pushed
	for _, rec := range records {
		switch rec.Time.Location() {
		case time.UTC:
			kinds["UTC"]++
		case time.Local:
			kinds["Local"]++
		default:
			_, off := rec.Time.Zone()
			kinds[fmt.Sprint(off)]++
		}
		page, _ := g.PageByURI(rec.URI)
		pushed[rec.Host] = append(pushed[rec.Host], session.Entry{Page: page, Time: rec.Time})
	}
	if kinds["UTC"] == 0 || kinds["Local"] == 0 || len(kinds) < 4 {
		t.Fatalf("zones pushed: %v, want UTC, Local and fixed offsets", kinds)
	}
	checked := map[string]int{} // entries, by where they came from
	check := func(where string, ss []session.Session) {
		t.Helper()
		for _, s := range ss {
			for _, e := range s.Entries {
				checked[where]++
				if !hasEntry(pushed[s.User], e) {
					t.Fatalf("%s: %s's entry at %v (%v) is not one pushed", where, s.User, e.Time, e.Time.Location())
				}
			}
		}
	}
	cfg := core.Config{Graph: g, Heuristic: heuristics.NewTimeGap()}
	flushed, err := core.NewTail(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	drained, err := core.NewTail(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range records {
		check("Push", flushed.Push(rec))
		drained.Push(rec)
		if i != len(records)*3/5 {
			continue
		}
		snap := flushed.Snapshot()
		if len(snap.Users) < 3 {
			t.Fatalf("mid-log snapshot holds %d users", len(snap.Users))
		}
		for _, u := range snap.Users {
			check("Snapshot", []session.Session{{User: u.User, Entries: u.Entries}})
			if !hasTime(pushed[u.User], u.Last) {
				t.Fatalf("Snapshot: %s's last %v (%v) is not a time pushed", u.User, u.Last, u.Last.Location())
			}
		}
		got := encode(nil, &Checkpoint{LogOffset: int64(i), Tail: snap})
		golden := filepath.Join("testdata", "tail-zones.ckpt")
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("the mid-log snapshot encodes to %d bytes that differ from %s's %d", len(got), golden, len(want))
		}
	}
	check("Flush", flushed.Flush())
	drained.Drain(func(ss []session.Session) { check("Drain", ss) })
	for _, where := range []string{"Push", "Snapshot", "Flush", "Drain"} {
		if checked[where] < 10 {
			t.Errorf("%s gave %d entries to check", where, checked[where])
		}
	}
}

// zoneLog is checkTailZones' input: a log of six users over three hours
// around 2024-03-10 07:00 UTC, when New York moves from -0500 to -0400, each
// line's time written in one of four zones, parsed as clf reads a file; then
// every fifth record again with its time in UTC, as user "utc-" + its host.
func zoneLog(g *webgraph.Graph, ny *time.Location) ([]clf.Record, error) {
	rng := rand.New(rand.NewSource(34))
	zones := []*time.Location{ny, time.FixedZone("", 0), time.FixedZone("", -7*3600), time.FixedZone("", 5*3600+1800)}
	at := time.Date(2024, 3, 10, 5, 30, 0, 0, time.UTC)
	var b strings.Builder
	for i := 0; i < 400; i++ {
		at = at.Add(time.Duration(rng.Intn(50)) * time.Second)
		if i%100 == 50 {
			at = at.Add(25 * time.Minute) // the log's clock closes everyone
		}
		page := webgraph.PageID(rng.Intn(g.NumPages()))
		fmt.Fprintf(&b, "10.0.0.%d - - [%s] \"GET %s HTTP/1.1\" 200 100\n",
			rng.Intn(6), at.In(zones[rng.Intn(len(zones))]).Format(clf.TimeLayout), g.Label(page))
	}
	records, bad, err := clf.ReadAll(strings.NewReader(b.String()))
	if err != nil || bad != 0 {
		return nil, fmt.Errorf("parse: %d malformed, %v", bad, err)
	}
	out := make([]clf.Record, 0, len(records)+len(records)/5)
	for i, rec := range records {
		out = append(out, rec)
		if i%5 == 0 {
			rec.Host, rec.Time = "utc-"+rec.Host, rec.Time.UTC()
			out = append(out, rec)
		}
	}
	return out, nil
}

func hasEntry(es []session.Entry, e session.Entry) bool {
	for _, p := range es {
		if p == e {
			return true
		}
	}
	return false
}

func hasTime(es []session.Entry, at time.Time) bool {
	for _, p := range es {
		if p.Time == at {
			return true
		}
	}
	return false
}
