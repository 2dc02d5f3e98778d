package heuristics

import (
	"fmt"
	"sync"

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
	// SkipPhase1 disables the time-based pre-splitting (ablation only; the
	// whole stream becomes one candidate, though ρ still gates Phase 2
	// referrer/extension checks).
	SkipPhase1 bool
	// DisableTotalDuration drops the δ rule from Phase 1 (ablation only).
	DisableTotalDuration bool
	// DisablePageStay drops the ρ rule from Phase 1 (ablation only; ρ still
	// gates Phase 2 checks).
	DisablePageStay bool
	// InferBacktracks enables the "intelligent path completion" the paper's
	// conclusion calls for as future work: when a page e enters a wave, a
	// fresh two-page session [B, e] is opened for every already-consumed
	// referrer B of e (hyperlink B→e, B earlier, within ρ). This models the
	// user having moved back to B through the browser cache before
	// requesting e — the LPP behavior whose sessions plain Smart-SRA misses
	// whenever B is no longer the last element of any constructed session.
	// Sessions it opens still satisfy both session rules; subsumed ones are
	// pruned by the maximality pass.
	InferBacktracks bool
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
	extra := ""
	if h.InferBacktracks {
		extra = ", infer-backtracks"
	}
	return fmt.Sprintf("Smart-SRA (δ=%v, ρ=%v%s)",
		h.Rules.TotalDuration, h.Rules.PageStay, extra)
}

// sraScratch holds the reusable working buffers of one reconstruction: the
// Phase-1 candidate boundaries and Phase-2's wave/tpages/rest/removed and
// constructed-set header arrays. Scratches are pooled across Reconstruct
// calls (so SmartSRA stays safe for concurrent use while a streaming Tail
// closing millions of bursts pays no per-burst scratch allocation) and
// reused across every candidate and wave inside one call. Only the entry
// slices of the final sessions — which the caller retains — live in the
// arena, whose append-only blocks make cross-call reuse safe.
// Entry timestamps are mirrored into parallel []int64 UnixNano arrays
// (remainT/restT/…): the wave scans are O(n²) time comparisons per wave, and
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
	remain   []int32           // Step II working set (ping), candidate indices
	remainT  []int64           // remain's UnixNano mirror
	rest     []int32           // Step II working set (pong)
	restT    []int64           // rest's UnixNano mirror
	wave     []bool            // Step I no-remaining-referrer marks
	tpages   []int32           // the current wave's pages
	tpagesT  []int64           // tpages' UnixNano mirror
	removed  []int32           // entries consumed by earlier waves
	removedT []int64           // removed's UnixNano mirror
	extended []bool            // Step III extension marks
	set      [][]session.Entry // constructed-set headers (ping)
	setT     []int64           // UnixNano of each set session's last entry
	tset     [][]session.Entry // constructed-set headers (pong)
	tsetT    []int64           // UnixNano of each tset session's last entry
	arena    entryArena        // backing store for constructed-session entries
	maximal  session.MaximalFilter
}

// sraScratchPool recycles reconstruction scratches across Reconstruct calls
// (and across SmartSRA instances — the scratch carries no per-instance
// state). Pooling is what keeps the streaming hot path allocation-free: a
// Tail closes one burst per user per quiet period, and without the pool each
// close would rebuild every working buffer from nothing.
var sraScratchPool = sync.Pool{New: func() any { return new(sraScratch) }}

// Reconstruct implements Reconstructor.
func (h SmartSRA) Reconstruct(stream session.Stream) []session.Session {
	return h.AppendSessions(nil, stream)
}

// AppendSessions reconstructs stream like Reconstruct but appends the
// sessions onto dst and returns it. The appended region equals what
// Reconstruct would have returned, in the same order, and its entry arrays
// are the caller's to keep.
func (h SmartSRA) AppendSessions(dst []session.Session, stream session.Stream) []session.Session {
	scr := sraScratchPool.Get().(*sraScratch)
	dst = h.appendSessions(dst, stream, scr)
	sraScratchPool.Put(scr)
	return dst
}

// WithScratch returns AppendSessions bound to a scratch of the caller's own
// — a streaming consumer closing one burst after another skips the pool
// round trip per call — together with release, which ends the life of every
// session appended since the previous release: their entry arrays are
// reused by later calls, so the caller must have dropped them all. A caller
// that never calls release keeps AppendSessions' guarantee that appended
// sessions are its to keep. The pair shares state and is not safe for
// concurrent use.
func (h SmartSRA) WithScratch() (appendSessions func(dst []session.Session, stream session.Stream) []session.Session, release func()) {
	scr := new(sraScratch)
	return func(dst []session.Session, stream session.Stream) []session.Session {
		return h.appendSessions(dst, stream, scr)
	}, scr.arena.rewind
}

// appendSessions is the reconstruction behind AppendSessions and
// WithScratch, on whichever scratch the entry point owns.
func (h SmartSRA) appendSessions(dst []session.Session, stream session.Stream, scr *sraScratch) []session.Session {
	start := len(dst)
	if scr.arena.block == nil {
		scr.arena.next = len(stream.Entries) + 8
	}
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
	if !h.SkipPhase1 {
		// Integer nanosecond comparisons, same trick as phase2: UnixNano is
		// order-preserving, so the split points are identical to the
		// time.Time.Sub form at a fraction of the per-entry cost.
		rho := h.Rules.PageStay.Nanoseconds()
		delta := h.Rules.TotalDuration.Nanoseconds()
		prev := entries[0].Time.UnixNano()
		startT := prev
		for i := 1; i < len(entries); i++ {
			et := entries[i].Time.UnixNano()
			gapBreak := !h.DisablePageStay && et-prev > rho
			totalBreak := !h.DisableTotalDuration && et-startT > delta
			if gapBreak || totalBreak {
				bounds = append(bounds, i)
				startT = et
			}
			prev = et
		}
	}
	return append(bounds, len(entries))
}

// phase2 runs the paper's Figure 2 procedure on one candidate session,
// returning the constructed topology-valid sessions. The returned outer
// slice aliases scratch storage and is only valid until the next phase2
// call on the same scratch; its element slices come from the scratch's
// entry arena with exact capacity and are safe to retain — the arena only
// ever appends into fresh block space, so reusing the scratch (pooled
// across Reconstruct calls) never rewrites a previously returned session.
func (h SmartSRA) phase2(cand []session.Entry, scr *sraScratch) [][]session.Entry {
	rho := h.Rules.PageStay.Nanoseconds()
	if out, ok := h.phase2Chain(cand, scr, rho); ok {
		return out
	}
	return h.phase2Waves(cand, scr, rho)
}

// phase2Waves is the general wave construction — every candidate that is
// not a pure chain (see phase2Chain) goes through here.
func (h SmartSRA) phase2Waves(cand []session.Entry, scr *sraScratch, rho int64) [][]session.Entry {
	remaining, remT := scr.remain[:0], scr.remainT[:0]
	for i := range cand {
		remaining = append(remaining, int32(i))
		remT = append(remT, cand[i].Time.UnixNano())
	}
	rest, restT := scr.rest[:0], scr.restT[:0]
	newSet, lastT := scr.set[:0], scr.setT[:0]
	removed, remvT := scr.removed[:0], scr.removedT[:0] // consumed by earlier waves
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
		for i := range remaining {
			et := remT[i]
			start := true
			pi := cand[remaining[i]].Page
			for j := 0; j < i; j++ {
				if rt := remT[j]; rt < et && et-rt <= rho &&
					h.Graph.HasEdge(cand[remaining[j]].Page, pi) {
					start = false
					break
				}
			}
			wave[i] = start
		}
		tpages, tpT := scr.tpages[:0], scr.tpagesT[:0]
		rest, restT = rest[:0], restT[:0]
		for i := range remaining {
			if wave[i] {
				tpages = append(tpages, remaining[i])
				tpT = append(tpT, remT[i])
			} else {
				rest = append(rest, remaining[i])
				restT = append(restT, remT[i])
			}
		}
		scr.tpages, scr.tpagesT = tpages, tpT
		// The earliest remaining entry always qualifies, so progress is
		// guaranteed.
		remaining, rest = rest, remaining // Step II (swap ping/pong buffers)
		remT, restT = restT, remT

		// Step III: extend the constructed sessions.
		if len(newSet) == 0 {
			newSet, lastT = h.appendInferredBacktracks(newSet, lastT, cand, tpages, tpT, removed, remvT, rho, &scr.arena)
			for i := range tpages {
				newSet = append(newSet, scr.arena.clone1(cand[tpages[i]]))
				lastT = append(lastT, tpT[i])
			}
			removed = append(removed, tpages...)
			remvT = append(remvT, tpT...)
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
		for i := range tpages {
			e, et := cand[tpages[i]], tpT[i]
			for k, sess := range newSet {
				if lt := lastT[k]; lt < et && et-lt <= rho &&
					h.Graph.HasEdge(sess[len(sess)-1].Page, e.Page) {
					tset = append(tset, scr.arena.extend(sess, e))
					tlastT = append(tlastT, et)
					extended[k] = true
				}
			}
		}
		tset, tlastT = h.appendInferredBacktracks(tset, tlastT, cand, tpages, tpT, removed, remvT, rho, &scr.arena)
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
		removed = append(removed, tpages...)
		remvT = append(remvT, tpT...)
	}
	scr.remain, scr.rest, scr.removed = remaining, rest, removed
	scr.remainT, scr.restT, scr.removedT = remT, restT, remvT
	if len(newSet) > 0 {
		scr.set, scr.setT = newSet, lastT
	}
	return newSet
}

// phase2Chain is phase2's fast path for the dominant burst shape in real
// navigation: a candidate whose entries already form one unambiguous
// referrer chain. Three conditions make the wave construction's outcome a
// foregone conclusion:
//
//  1. timestamps strictly increase with consecutive gaps ≤ ρ, so every
//     Step-I wave is exactly the single next entry;
//  2. the topology has an edge from each entry's page to its successor's,
//     so the wave entry always extends the chain (every session in the
//     constructed set ends at the current chain head, all extend together,
//     and no wave entry is left unattached);
//  3. no earlier non-adjacent entry is a time-valid referrer of a later
//     one — then every inferred backtrack [B, e] the slow path would emit
//     is an adjacent pair of the chain, contiguous inside it and dropped
//     by MaximalOnly (as is any equal-pages session from another candidate
//     that the clone would have deduplicated: it is subsumed by this chain
//     directly). Only checked when InferBacktracks is on; without
//     inference no backtrack clones exist at all.
//
// Under those conditions the post-filter reconstruction is exactly one
// session — the candidate itself — so the wave machinery, the backtrack
// clones, and their MaximalOnly filtering are skipped wholesale. The guard
// is O(n²) edge probes but allocation-free, versus the slow path's O(n³)
// wave scans plus n-1 arena clones; on a non-chain candidate it bails at
// the first violation and phase2 proceeds normally.
func (h SmartSRA) phase2Chain(cand []session.Entry, scr *sraScratch, rho int64) ([][]session.Entry, bool) {
	n := len(cand)
	if n == 0 {
		return nil, false
	}
	t := scr.remainT[:0]
	for i := range cand {
		t = append(t, cand[i].Time.UnixNano())
	}
	scr.remainT = t
	for i := 1; i < n; i++ {
		if t[i-1] >= t[i] || t[i]-t[i-1] > rho ||
			!h.Graph.HasEdge(cand[i-1].Page, cand[i].Page) {
			return nil, false
		}
	}
	if h.InferBacktracks {
		for i := 2; i < n; i++ {
			et := t[i]
			for j := 0; j+1 < i; j++ {
				// t[j] < et is implied by the strict increase above; the
				// gap bound is not.
				if et-t[j] <= rho && h.Graph.HasEdge(cand[j].Page, cand[i].Page) {
					return nil, false
				}
			}
		}
	}
	set := append(scr.set[:0], scr.arena.cloneAll(cand))
	scr.set = set
	return set, true
}

// appendInferredBacktracks appends a [B, e] session (with e's UnixNano onto
// lastT) for every consumed referrer B of each wave page e (see
// InferBacktracks). Referrers still inside the candidate cannot qualify: e
// would not be in the wave then.
func (h SmartSRA) appendInferredBacktracks(dst [][]session.Entry, lastT []int64, cand []session.Entry, tpages []int32, tpT []int64, removed []int32, remvT []int64, rho int64, arena *entryArena) ([][]session.Entry, []int64) {
	if !h.InferBacktracks {
		return dst, lastT
	}
	for i := range tpages {
		et := tpT[i]
		ei := cand[tpages[i]]
		for j := range removed {
			if bt := remvT[j]; bt < et && et-bt <= rho &&
				h.Graph.HasEdge(cand[removed[j]].Page, ei.Page) {
				dst = append(dst, arena.clone2(cand[removed[j]], ei))
				lastT = append(lastT, et)
			}
		}
	}
	return dst, lastT
}
