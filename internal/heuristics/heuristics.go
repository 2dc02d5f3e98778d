// Package heuristics implements the four reactive session reconstruction
// strategies the paper evaluates:
//
//	heur1  time-oriented, total session duration ≤ δ (TimeTotal)
//	heur2  time-oriented, page-stay time ≤ ρ       (TimeGap)
//	heur3  navigation-oriented with path completion (Navigation)
//	heur4  Smart-SRA, the paper's contribution      (SmartSRA)
//
// All four consume a per-user request Stream (timestamp order) and emit the
// reconstructed sessions for that user. They are pure functions of their
// input and configuration, safe for concurrent use: every Reconstruct call
// builds on a fresh lane (Lend) of its own.
package heuristics

import (
	"fmt"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Reconstructor is a session reconstruction heuristic.
type Reconstructor interface {
	// Name returns a short stable identifier ("heur1" ... "heur4") used in
	// reports; see also Describe.
	Name() string
	// Reconstruct splits one user's request stream into sessions. The input
	// must be in non-decreasing timestamp order (prep.BuildStreams
	// guarantees this). Implementations never retain or modify the input.
	Reconstruct(stream session.Stream) []session.Session
}

// Describer is implemented by heuristics that can explain themselves.
type Describer interface {
	Describe() string
}

// ByName returns the heuristic a command line names, "heur1" to "heur4",
// with the paper's thresholds; g is the site topology heur3 and heur4 need.
func ByName(name string, g *webgraph.Graph) (Reconstructor, error) {
	switch name {
	case "heur1":
		return NewTimeTotal(), nil
	case "heur2":
		return NewTimeGap(), nil
	case "heur3":
		return NewNavigation(g), nil
	case "heur4":
		return NewSmartSRA(g), nil
	}
	return nil, fmt.Errorf("unknown heuristic %q (want heur1..heur4)", name)
}

// Lend returns a lane of h: appendTo appends the sessions of one user's
// stream onto dst, exactly what Reconstruct returns, and release ends the
// life of every session appended since the previous release. Appended
// sessions live in storage the lane owns — an entry arena, never the input
// stream — so a caller releases only once it has dropped them all, and a
// caller that never releases keeps them as its own. A steady run of appends
// and releases settles on one arena block and allocates nothing. A
// heuristic Lend does not know is served by its Reconstruct, with a release
// that does nothing. The pair shares state: one goroutine at a time uses a
// lane.
func Lend(h Reconstructor) (appendTo func(dst []session.Session, st session.Stream) []session.Session, release func()) {
	switch h := h.(type) {
	case TimeTotal:
		a := new(entryArena)
		return func(dst []session.Session, st session.Stream) []session.Session {
			return h.appendSessions(dst, st, a)
		}, a.rewind
	case TimeGap:
		a := new(entryArena)
		return func(dst []session.Session, st session.Stream) []session.Session {
			return h.appendSessions(dst, st, a)
		}, a.rewind
	case Navigation:
		scr := new(navScratch)
		return func(dst []session.Session, st session.Stream) []session.Session {
			return h.appendSessions(dst, st, scr)
		}, scr.arena.rewind
	case SmartSRA:
		scr := new(sraScratch)
		return func(dst []session.Session, st session.Stream) []session.Session {
			return h.appendSessions(dst, st, scr)
		}, scr.arena.rewind
	}
	return func(dst []session.Session, st session.Stream) []session.Session {
		return append(dst, h.Reconstruct(st)...)
	}, func() {}
}

// ReconstructAll applies h to every stream and concatenates the results, on
// one lane that is never released.
func ReconstructAll(h Reconstructor, streams []session.Stream) []session.Session {
	appendTo, _ := Lend(h)
	var out []session.Session
	for _, st := range streams {
		out = appendTo(out, st)
	}
	return out
}
