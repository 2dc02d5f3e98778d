// Package eval scores session reconstruction heuristics against the agent
// simulator's ground truth and regenerates the paper's evaluation (§5):
// the real-accuracy metric and the three parameter sweeps of Figures 8-10.
package eval

import (
	"fmt"

	"smartsra/internal/session"
)

// Accuracy is the paper's metric: the fraction of real (ground-truth)
// sessions that some reconstructed session captures as a contiguous
// subsequence (§5.1).
type Accuracy struct {
	// Real is the number of ground-truth sessions.
	Real int
	// Captured is how many of them were captured.
	Captured int
}

// Value returns the accuracy in [0, 1]; zero when no real sessions exist.
func (a Accuracy) Value() float64 {
	if a.Real == 0 {
		return 0
	}
	return float64(a.Captured) / float64(a.Real)
}

// Percent returns the accuracy as a percentage, as the paper's figures plot.
func (a Accuracy) Percent() float64 { return 100 * a.Value() }

// String formats the accuracy for reports.
func (a Accuracy) String() string {
	return fmt.Sprintf("%d/%d (%.1f%%)", a.Captured, a.Real, a.Percent())
}

// Score computes the accuracy of candidates against the real sessions. A
// real session counts as captured when ANY candidate session of the same
// user captures it; sessions of other users never match (the reconstruction
// is per-user to begin with).
func Score(real, candidates []session.Session) Accuracy {
	t := indexSessions(real).scoreSessions(candidates)
	return Accuracy{Real: len(real), Captured: t.exists}
}

// SessionStats summarizes a reconstructed session set, used alongside
// accuracy to reproduce the paper's qualitative claims (e.g. the
// navigation-oriented heuristic's inflated session lengths, §2.2).
type SessionStats struct {
	// Sessions is the number of sessions in the set.
	Sessions int
	// MeanLength is the mean number of page views per session.
	MeanLength float64
	// MaxLength is the longest session's page-view count.
	MaxLength int
	// MedianLength is the median page-view count.
	MedianLength float64
}

// Summarize computes SessionStats for a session set.
func Summarize(sessions []session.Session) SessionStats {
	var t tally
	for i := range sessions {
		t.count(len(sessions[i].Entries))
	}
	return t.stats()
}

// String formats the stats for reports.
func (s SessionStats) String() string {
	return fmt.Sprintf("sessions=%d meanLen=%.2f medianLen=%.1f maxLen=%d",
		s.Sessions, s.MeanLength, s.MedianLength, s.MaxLength)
}
