package simulator

import (
	"strings"
	"testing"
	"time"

	"smartsra/internal/clf"
)

func TestCrawlerRecords(t *testing.T) {
	g := testTopology(t)
	start := time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)
	recs := CrawlerRecords(g, 2, 7, start)
	// Each bot: robots.txt + every reachable page (testTopology ensures all
	// pages reachable).
	want := 2 * (1 + g.NumPages())
	if len(recs) != want {
		t.Fatalf("records = %d, want %d", len(recs), want)
	}
	perBot := make(map[string][]clf.Record)
	for _, r := range recs {
		perBot[r.Host] = append(perBot[r.Host], r)
		if r.UserAgent != CrawlerUserAgent {
			t.Fatalf("user agent = %q", r.UserAgent)
		}
	}
	if len(perBot) != 2 {
		t.Fatalf("bots = %d", len(perBot))
	}
	for host, rs := range perBot {
		if rs[0].URI != "/robots.txt" {
			t.Errorf("bot %s first fetch = %q", host, rs[0].URI)
		}
		seen := make(map[string]bool)
		for i, r := range rs {
			if i > 0 && r.Time.Before(rs[i-1].Time) {
				t.Fatalf("bot %s records out of order at %d", host, i)
			}
			if seen[r.URI] {
				t.Fatalf("bot %s fetched %q twice", host, r.URI)
			}
			seen[r.URI] = true
		}
	}
	// Deterministic in the seed.
	again := CrawlerRecords(g, 2, 7, start)
	for i := range recs {
		if recs[i] != again[i] {
			t.Fatal("crawler records not deterministic")
		}
	}
	if got := CrawlerRecords(g, 0, 7, start); got != nil {
		t.Errorf("zero bots produced %d records", len(got))
	}
}

func TestCrawlerCleaningWithUserAgent(t *testing.T) {
	g := testTopology(t)
	start := time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)
	recs := CrawlerRecords(g, 1, 3, start)
	clean := clf.StandardCleaning()
	kept, dropped := clf.Apply(recs, func(r clf.Record) bool {
		ua := strings.ToLower(r.UserAgent)
		return clean(r) && !strings.Contains(ua, "crawler") && !strings.Contains(ua, "bot")
	})
	if len(kept) != 0 {
		t.Errorf("%d crawler records survived UA cleaning", len(kept))
	}
	if dropped != len(recs) {
		t.Errorf("dropped %d of %d", dropped, len(recs))
	}
	// Common-format cleaning alone only removes the robots.txt probe.
	keptCommon, _ := clf.Apply(recs, clf.StandardCleaning())
	if len(keptCommon) != len(recs)-1 {
		t.Errorf("common cleaning kept %d of %d (only robots.txt is detectable)",
			len(keptCommon), len(recs))
	}
}
