package simulator

import (
	"testing"

	"smartsra/internal/clf"
)

// TestScheduleMatchesLog: the replay schedule and the rendered combined log
// are two views of the same run, so they must agree request-for-request —
// same count, same global order, same user/URI/Referer/time at every
// position. This is the invariant that makes a loadgen replay through a real
// server equivalent to feeding the offline log.
func TestScheduleMatchesLog(t *testing.T) {
	g := testTopology(t)
	p := testParams()
	res, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	reqs := res.Schedule(g)
	recs := res.Log(g)
	if len(reqs) != len(recs) {
		t.Fatalf("schedule has %d requests, log has %d records", len(reqs), len(recs))
	}
	if len(reqs) == 0 {
		t.Fatal("empty run")
	}
	for i := range reqs {
		q, r := reqs[i], recs[i]
		if q.User != r.Host || q.URI != r.URI || q.Referer != r.Referer || !q.At.Equal(r.Time) {
			t.Fatalf("position %d diverged:\n schedule %+v\n log      %+v", i, q, r)
		}
	}
	// Non-decreasing times, and session-opening requests carry no referrer.
	sawOpening := false
	for i := 1; i < len(reqs); i++ {
		if reqs[i].At.Before(reqs[i-1].At) {
			t.Fatalf("schedule out of order at %d: %v after %v", i, reqs[i].At, reqs[i-1].At)
		}
	}
	for _, q := range reqs {
		if q.Referer == clf.NoField {
			sawOpening = true
			break
		}
	}
	if !sawOpening {
		t.Error("no session-opening request in the schedule")
	}
}

// TestScheduleDeterministic: same graph and params, same schedule.
func TestScheduleDeterministic(t *testing.T) {
	g := testTopology(t)
	p := testParams()
	a, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Schedule(g), b.Schedule(g)
	if len(sa) != len(sb) {
		t.Fatalf("lengths differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].User != sb[i].User || sa[i].URI != sb[i].URI ||
			sa[i].Referer != sb[i].Referer || !sa[i].At.Equal(sb[i].At) {
			t.Fatalf("position %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}
