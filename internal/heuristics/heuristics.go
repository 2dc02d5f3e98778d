// Package heuristics implements the four reactive session reconstruction
// strategies the paper evaluates:
//
//	heur1  time-oriented, total session duration ≤ δ (TimeTotal)
//	heur2  time-oriented, page-stay time ≤ ρ       (TimeGap)
//	heur3  navigation-oriented with path completion (Navigation)
//	heur4  Smart-SRA, the paper's contribution      (SmartSRA)
//
// All four consume a per-user request Stream (timestamp order) and emit the
// reconstructed sessions for that user. A heuristic is its lane: Lend
// returns an append function and a release over storage of the lane's own,
// and that is the only way sessions are built. A heuristic value is
// immutable configuration, so any number of lanes of it run concurrently;
// each lane is used by one goroutine at a time.
package heuristics

import (
	"fmt"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Reconstructor is a session reconstruction heuristic.
type Reconstructor interface {
	// Name returns a short stable identifier ("heur1" ... "heur4") used in
	// reports.
	Name() string
	// Describe explains the heuristic and its thresholds in one line.
	Describe() string
	// Lend returns a lane: appendTo appends the sessions of one user's
	// stream onto dst, and release ends the life of every session appended
	// since the previous release. The stream must be in non-decreasing
	// timestamp order; it is never retained or modified. Appended sessions
	// live in storage the lane owns — an entry arena, never the input
	// stream — so a caller releases only once it has dropped them all, and
	// a caller that never releases keeps them as its own. A steady run of
	// appends and releases settles on one arena block and allocates
	// nothing. The pair shares state: one goroutine at a time uses a lane.
	Lend() (appendTo func(dst []session.Session, st session.Stream) []session.Session, release func())
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

// ReconstructAll applies h to every stream and concatenates the results, on
// one lane that is never released.
func ReconstructAll(h Reconstructor, streams []session.Stream) []session.Session {
	appendTo, _ := h.Lend()
	var out []session.Session
	for _, st := range streams {
		out = appendTo(out, st)
	}
	return out
}
