package prep

import (
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/webgraph"
)

var t0 = time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)

func rec(host, uri string, minute int) clf.Record {
	return clf.Record{
		Host: host, Ident: "-", AuthUser: "-",
		Time:   t0.Add(time.Duration(minute) * time.Minute),
		Method: "GET", URI: uri, Protocol: "HTTP/1.1", Status: 200, Bytes: 1,
	}
}

func figureGraph(t *testing.T) (*webgraph.Graph, map[string]webgraph.PageID) {
	t.Helper()
	return webgraph.PaperFigure1()
}

func TestBuildStreamsGroupsAndSorts(t *testing.T) {
	g, ids := figureGraph(t)
	records := []clf.Record{
		rec("10.0.0.2", "/P13.html", 5),
		rec("10.0.0.1", "/P1.html", 0),
		rec("10.0.0.2", "/P1.html", 1),
		rec("10.0.0.1", "/P20.html", 3),
	}
	streams, stats, err := BuildStreams(records, GraphResolver(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Users != 2 || stats.Records != 4 || stats.Filtered != 0 || stats.Unresolved != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(streams) != 2 {
		t.Fatalf("streams = %d", len(streams))
	}
	// Sorted by user key.
	if streams[0].User != "10.0.0.1" || streams[1].User != "10.0.0.2" {
		t.Errorf("stream order: %s, %s", streams[0].User, streams[1].User)
	}
	// Within user, sorted by time.
	s2 := streams[1]
	if s2.Entries[0].Page != ids["P1"] || s2.Entries[1].Page != ids["P13"] {
		t.Errorf("user 10.0.0.2 entries out of order: %v", s2.Entries)
	}
}

func TestBuildStreamsStableOnEqualTimestamps(t *testing.T) {
	g, ids := figureGraph(t)
	records := []clf.Record{
		rec("u", "/P1.html", 0),
		rec("u", "/P20.html", 0), // same timestamp: log order must win
	}
	streams, _, err := BuildStreams(records, GraphResolver(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := streams[0].Entries
	if e[0].Page != ids["P1"] || e[1].Page != ids["P20"] {
		t.Errorf("equal-timestamp order not stable: %v", e)
	}
}

func TestBuildStreamsFilterAndUnresolved(t *testing.T) {
	g, _ := figureGraph(t)
	records := []clf.Record{
		rec("u", "/P1.html", 0),
		rec("u", "/logo.gif", 1), // filtered
		rec("u", "/missing.html", 2) /* unresolved */}
	records[1].URI = "/logo.gif"
	streams, stats, err := BuildStreams(records, GraphResolver(g), Options{
		Filter: clf.StandardCleaning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Filtered != 1 || stats.Unresolved != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(streams) != 1 || len(streams[0].Entries) != 1 {
		t.Fatalf("streams = %v", streams)
	}
}

func TestBuildStreamsNilResolver(t *testing.T) {
	if _, _, err := BuildStreams(nil, nil, Options{}); err == nil {
		t.Error("nil resolver accepted")
	}
}
