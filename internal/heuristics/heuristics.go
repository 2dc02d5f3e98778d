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
// input and configuration, safe for concurrent use.
package heuristics

import "smartsra/internal/session"

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

// Lend returns h's reconstruction for a single-goroutine loop that is done
// with one user's sessions before it asks for the next (eval's scoring
// loop). The sessions reconstruct returns are lent: they live in scratch
// the pair owns — or alias the stream's own entries — and die at release, so
// the loop calls release once per user, after it has dropped them, and the
// steady state allocates nothing. A heuristic Lend does not know is served
// by its Reconstruct, with a release that does nothing.
func Lend(h Reconstructor) (reconstruct func(session.Stream) []session.Session, release func()) {
	var appendSessions func(dst []session.Session, stream session.Stream) []session.Session
	release = func() {}
	switch h := h.(type) {
	case TimeTotal:
		appendSessions = func(dst []session.Session, st session.Stream) []session.Session {
			return h.appendSessions(dst, st, true)
		}
	case TimeGap:
		appendSessions = func(dst []session.Session, st session.Stream) []session.Session {
			return h.appendSessions(dst, st, true)
		}
	case Navigation:
		scr := new(navScratch)
		appendSessions = func(dst []session.Session, st session.Stream) []session.Session {
			return h.appendSessions(dst, st, scr)
		}
		release = scr.arena.rewind
	case SmartSRA:
		appendSessions, release = h.WithScratch()
	default:
		return h.Reconstruct, release
	}
	var buf []session.Session
	return func(st session.Stream) []session.Session {
		buf = appendSessions(buf[:0], st)
		return buf
	}, release
}

// ReconstructAll applies h to every stream and concatenates the results.
func ReconstructAll(h Reconstructor, streams []session.Stream) []session.Session {
	var out []session.Session
	for _, st := range streams {
		out = append(out, h.Reconstruct(st)...)
	}
	return out
}
