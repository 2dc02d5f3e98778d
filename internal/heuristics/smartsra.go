package heuristics

import (
	"fmt"

	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// SmartSRA is the paper's Smart Session Reconstruction Algorithm (heur4,
// §3). Phase 1 splits the user's request stream into candidate sessions
// using BOTH time-oriented criteria (total duration δ and page-stay ρ).
// Phase 2 partitions each candidate into maximal sessions that satisfy both
// the Timestamp Ordering Rule and the Topology Rule, by repeatedly peeling
// off the pages that have no remaining referrer and appending them to every
// constructed session whose last page links to them.
//
// Unlike the navigation-oriented heuristic, Smart-SRA never inserts
// artificial backward movements, so its sessions are short, strictly
// forward, and every consecutive pair is hyperlink-connected.
type SmartSRA struct {
	// Graph is the site topology.
	Graph *webgraph.Graph
	// Rules holds δ (TotalDuration) and ρ (PageStay).
	Rules session.Rules
}

// NewSmartSRA returns heur4 over g with the paper's default thresholds
// (δ = 30 min, ρ = 10 min).
func NewSmartSRA(g *webgraph.Graph) SmartSRA {
	return SmartSRA{Graph: g, Rules: session.DefaultRules()}
}

// Name implements Reconstructor.
func (SmartSRA) Name() string { return "heur4" }

// Describe implements Describer.
func (h SmartSRA) Describe() string {
	return fmt.Sprintf("Smart-SRA (δ=%v, ρ=%v)", h.Rules.TotalDuration, h.Rules.PageStay)
}

// sraScratch is the working state of a Smart-SRA lane (Lend): the Phase-1
// candidate boundaries, Phase-2's wave/tpages/rest and constructed-set
// header arrays, reused across every candidate and wave, and the arena the
// final sessions' entry slices live in.
// Each candidate's timestamps are converted once into t, UnixNano by
// candidate index: the wave scans are O(n²) time comparisons per wave, and
// int64 compare/subtract is several times cheaper than time.Time's
// wall/monotonic-aware Before and Sub. The conversion is order-preserving,
// so the session output is unchanged.
// The wave working sets hold int32 indices into the candidate instead of
// Entry values: the per-wave partition then moves 4-byte integers rather
// than 32-byte structs (which carry a pointer, so copying them also pays
// GC write barriers), and the scratch slices stay invisible to the
// garbage collector.
type sraScratch struct {
	bounds   []int             // phase1 candidate start offsets
	t        []int64           // the candidate's UnixNano, by index
	remain   []int32           // Step II working set (ping), candidate indices
	rest     []int32           // Step II working set (pong)
	wave     []bool            // Step I no-remaining-referrer marks
	tpages   []int32           // the current wave's pages
	extended []bool            // Step III extension marks
	set      [][]session.Entry // constructed-set headers (ping)
	setT     []int64           // UnixNano of each set session's last entry
	tset     [][]session.Entry // constructed-set headers (pong)
	tsetT    []int64           // UnixNano of each tset session's last entry
	arena    entryArena        // backing store for constructed-session entries
	maximal  session.MaximalFilter
}

// Reconstruct implements Reconstructor.
func (h SmartSRA) Reconstruct(stream session.Stream) []session.Session {
	return h.appendSessions(nil, stream, new(sraScratch))
}

// appendSessions appends stream's sessions onto dst, built on the lane's
// scratch.
func (h SmartSRA) appendSessions(dst []session.Session, stream session.Stream, scr *sraScratch) []session.Session {
	start := len(dst)
	scr.arena.seed(len(stream.Entries))
	scr.bounds = h.phase1(stream.Entries, scr.bounds[:0])
	for b := 0; b+1 < len(scr.bounds); b++ {
		cand := stream.Entries[scr.bounds[b]:scr.bounds[b+1]]
		sessions := h.phase2(cand, scr)
		for _, entries := range sessions {
			dst = append(dst, session.Session{User: stream.User, Entries: entries})
		}
	}
	// The algorithm keeps only maximal sequences; enforce it over this
	// stream's sessions so no output session is subsumed by another (also
	// drops exact duplicates that can arise from separate extension paths).
	// The filter only allocates when something is dropped; copy the kept
	// tail back in place then.
	kept := scr.maximal.Keep(dst[start:])
	if len(kept) != len(dst)-start {
		dst = dst[:start+copy(dst[start:], kept)]
	}
	return dst
}

// phase1 splits a request sequence into candidate sessions using the two
// time-oriented criteria (§3, Phase 1). Candidates are always contiguous
// runs of the input, so it appends their boundary offsets to bounds instead
// of materializing sub-slices: candidate i is entries[bounds[i]:bounds[i+1]].
func (h SmartSRA) phase1(entries []session.Entry, bounds []int) []int {
	if len(entries) == 0 {
		return bounds
	}
	bounds = append(bounds, 0)
	// Integer nanosecond comparisons, same trick as phase2: UnixNano is
	// order-preserving, so the split points are identical to the
	// time.Time.Sub form at a fraction of the per-entry cost.
	rho := h.Rules.PageStay.Nanoseconds()
	delta := h.Rules.TotalDuration.Nanoseconds()
	prev := entries[0].Time.UnixNano()
	startT := prev
	for i := 1; i < len(entries); i++ {
		et := entries[i].Time.UnixNano()
		if et-prev > rho || et-startT > delta {
			bounds = append(bounds, i)
			startT = et
		}
		prev = et
	}
	return append(bounds, len(entries))
}

// phase2 runs the paper's Figure 2 procedure on one candidate session,
// returning the constructed topology-valid sessions. The returned outer
// slice aliases scratch storage and is only valid until the next phase2
// call on the same scratch; its element slices come from the scratch's
// entry arena with exact capacity, and live until the lane is released.
func (h SmartSRA) phase2(cand []session.Entry, scr *sraScratch) [][]session.Entry {
	rho := h.Rules.PageStay.Nanoseconds()
	t := scr.t[:0]
	for i := range cand {
		t = append(t, cand[i].Time.UnixNano())
	}
	scr.t = t
	if out, ok := h.phase2Chain(cand, t, scr, rho); ok {
		return out
	}
	return h.phase2Waves(cand, t, scr, rho)
}

// phase2Waves is the general wave construction — every candidate that is
// not a pure chain (see phase2Chain) goes through here. t holds cand's
// UnixNano by index.
func (h SmartSRA) phase2Waves(cand []session.Entry, t []int64, scr *sraScratch, rho int64) [][]session.Entry {
	remaining := scr.remain[:0]
	for i := range cand {
		remaining = append(remaining, int32(i))
	}
	rest := scr.rest[:0]
	newSet, lastT := scr.set[:0], scr.setT[:0]
	for len(remaining) > 0 {
		// Step I: collect pages with no remaining referrer — no EARLIER
		// entry (strictly smaller timestamp, within ρ) links to them. See
		// DESIGN.md for the j>i / j<i pseudocode typo note; this reading
		// matches the paper's worked example (Table 4).
		wave := scr.wave
		if cap(wave) < len(remaining) {
			wave = make([]bool, len(remaining))
			scr.wave = wave
		}
		wave = wave[:len(remaining)]
		for i, ri := range remaining {
			et := t[ri]
			start := true
			pi := cand[ri].Page
			for _, rj := range remaining[:i] {
				if rt := t[rj]; rt < et && et-rt <= rho &&
					h.Graph.HasEdge(cand[rj].Page, pi) {
					start = false
					break
				}
			}
			wave[i] = start
		}
		tpages := scr.tpages[:0]
		rest = rest[:0]
		for i, ri := range remaining {
			if wave[i] {
				tpages = append(tpages, ri)
			} else {
				rest = append(rest, ri)
			}
		}
		scr.tpages = tpages
		// The earliest remaining entry always qualifies, so progress is
		// guaranteed.
		remaining, rest = rest, remaining // Step II (swap ping/pong buffers)

		// Step III: extend the constructed sessions.
		if len(newSet) == 0 {
			for _, ti := range tpages {
				newSet = append(newSet, scr.arena.clone1(cand[ti]))
				lastT = append(lastT, t[ti])
			}
			continue
		}
		tset, tlastT := scr.tset[:0], scr.tsetT[:0]
		extended := scr.extended
		if cap(extended) < len(newSet) {
			extended = make([]bool, len(newSet))
			scr.extended = extended
		}
		extended = extended[:len(newSet)]
		for k := range extended {
			extended[k] = false
		}
		// Every wave page attaches to some session here: the referrer that
		// kept it out of the previous wave left a session ending in itself
		// (DESIGN.md, "Orphan pages in Phase 2").
		for _, ti := range tpages {
			e, et := cand[ti], t[ti]
			for k, sess := range newSet {
				if lt := lastT[k]; lt < et && et-lt <= rho &&
					h.Graph.HasEdge(sess[len(sess)-1].Page, e.Page) {
					tset = append(tset, scr.arena.extend(sess, e))
					tlastT = append(tlastT, et)
					extended[k] = true
				}
			}
		}
		for k, sess := range newSet {
			if !extended[k] {
				tset = append(tset, sess)
				tlastT = append(tlastT, lastT[k])
			}
		}
		newSet, tset = tset, newSet // swap ping/pong header buffers
		lastT, tlastT = tlastT, lastT
		scr.set, scr.tset = newSet, tset[:0]
		scr.setT, scr.tsetT = lastT, tlastT[:0]
	}
	scr.remain, scr.rest = remaining, rest
	if len(newSet) > 0 {
		scr.set, scr.setT = newSet, lastT
	}
	return newSet
}

// phase2Chain is phase2's fast path for the dominant burst shape in real
// navigation: a candidate whose entries already form one unambiguous
// referrer chain. Two conditions make the wave construction's outcome a
// foregone conclusion:
//
//  1. timestamps strictly increase with consecutive gaps ≤ ρ, so every
//     Step-I wave is exactly the single next entry;
//  2. the topology has an edge from each entry's page to its successor's,
//     so the wave entry always extends the chain (every session in the
//     constructed set ends at the current chain head, all extend together,
//     and no wave entry is left unattached).
//
// Under those conditions the reconstruction is exactly one session — the
// candidate itself — so the wave machinery is skipped wholesale. The guard
// is n-1 edge probes and allocation-free, versus the slow path's O(n³) wave
// scans plus n-1 arena extensions; on a non-chain candidate it bails at the
// first violation and phase2 proceeds normally.
func (h SmartSRA) phase2Chain(cand []session.Entry, t []int64, scr *sraScratch, rho int64) ([][]session.Entry, bool) {
	n := len(cand)
	if n == 0 {
		return nil, false
	}
	for i := 1; i < n; i++ {
		if t[i-1] >= t[i] || t[i]-t[i-1] > rho ||
			!h.Graph.HasEdge(cand[i-1].Page, cand[i].Page) {
			return nil, false
		}
	}
	set := append(scr.set[:0], scr.arena.cloneAll(cand))
	scr.set = set
	return set, true
}
