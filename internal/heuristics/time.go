package heuristics

import (
	"fmt"
	"time"

	"smartsra/internal/session"
)

// TimeTotal is the paper's first time-oriented heuristic (heur1): a session
// may not last longer than Delta. A request at time t joins the current
// session iff t - t0 ≤ Delta, where t0 is the session's first request;
// otherwise it starts a new session (§2.1).
type TimeTotal struct {
	// Delta is the session-duration upper bound δ; 30 minutes in the paper.
	Delta time.Duration
}

// NewTimeTotal returns heur1 with the paper's default δ = 30 minutes.
func NewTimeTotal() TimeTotal { return TimeTotal{Delta: session.DefaultTotalDuration} }

// Name implements Reconstructor.
func (TimeTotal) Name() string { return "heur1" }

// Describe implements Reconstructor.
func (h TimeTotal) Describe() string {
	return fmt.Sprintf("time-oriented (total session duration ≤ %v)", h.Delta)
}

// Lend implements Reconstructor.
func (h TimeTotal) Lend() (func([]session.Session, session.Stream) []session.Session, func()) {
	a := new(entryArena)
	return func(dst []session.Session, st session.Stream) []session.Session {
		return h.appendSessions(dst, st, a)
	}, a.rewind
}

func (h TimeTotal) appendSessions(dst []session.Session, stream session.Stream, arena *entryArena) []session.Session {
	entries := stream.Entries
	return appendRuns(dst, stream, arena, func(first, i int) bool {
		return entries[i].Time.Sub(entries[first].Time) > h.Delta
	})
}

// appendRuns appends the sessions of a time-oriented heuristic: contiguous
// runs of the stream, a new one starting at every entry i for which cut,
// given the current run's first index, says i may not join. Each run is
// copied into the lane's arena.
func appendRuns(dst []session.Session, stream session.Stream, arena *entryArena, cut func(first, i int) bool) []session.Session {
	arena.seed(len(stream.Entries))
	first := 0
	for i := 1; i <= len(stream.Entries); i++ {
		if i < len(stream.Entries) && !cut(first, i) {
			continue
		}
		run := arena.cloneAll(stream.Entries[first:i])
		dst = append(dst, session.Session{User: stream.User, Entries: run})
		first = i
	}
	return dst
}

// TimeGap is the paper's second time-oriented heuristic (heur2): the time
// spent on any page is bounded by Rho. A request at time t joins the current
// session iff t - t_prev ≤ Rho; otherwise it starts a new session (§2.1).
type TimeGap struct {
	// Rho is the page-stay upper bound ρ; 10 minutes in the paper.
	Rho time.Duration
}

// NewTimeGap returns heur2 with the paper's default ρ = 10 minutes.
func NewTimeGap() TimeGap { return TimeGap{Rho: session.DefaultPageStay} }

// Name implements Reconstructor.
func (TimeGap) Name() string { return "heur2" }

// Describe implements Reconstructor.
func (h TimeGap) Describe() string {
	return fmt.Sprintf("time-oriented (page-stay time ≤ %v)", h.Rho)
}

// Lend implements Reconstructor.
func (h TimeGap) Lend() (func([]session.Session, session.Stream) []session.Session, func()) {
	a := new(entryArena)
	return func(dst []session.Session, st session.Stream) []session.Session {
		return h.appendSessions(dst, st, a)
	}, a.rewind
}

func (h TimeGap) appendSessions(dst []session.Session, stream session.Stream, arena *entryArena) []session.Session {
	entries := stream.Entries
	return appendRuns(dst, stream, arena, func(_, i int) bool {
		return entries[i].Time.Sub(entries[i-1].Time) > h.Rho
	})
}
