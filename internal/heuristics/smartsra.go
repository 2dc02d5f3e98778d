package heuristics

import (
	"fmt"
	"math/bits"
	"slices"

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

// Describe implements Reconstructor.
func (h SmartSRA) Describe() string {
	return fmt.Sprintf("Smart-SRA (δ=%v, ρ=%v)", h.Rules.TotalDuration, h.Rules.PageStay)
}

// sraScratch is the working state of a Smart-SRA lane (Lend), reused across
// every stream, candidate and wave. t is the candidate's UnixNano by index:
// int64 compares are several times cheaper than time.Time's and keep its
// order. Phase 2 works on integers alone (link rows, a live mask, waves and
// session nodes), so only the returned headers and the arena hold pointers.
type sraScratch struct {
	bounds   []int             // phase1 candidate start offsets
	t        []int64           // the candidate's UnixNano, by index
	links    []uint64          // row i, w words: bit j when entry j is a ρ-valid referrer of i
	live     []uint64          // the entries no wave has taken yet
	wave     []int32           // the current wave's entries, in candidate order
	extended []bool            // Step III extension marks, by set position
	nodes    []sraNode         // every session built for the candidate
	set      []int32           // the constructed set, node ids (ping)
	tset     []int32           // the constructed set, node ids (pong)
	out      [][]session.Entry // the sessions phase2 returns
	arena    entryArena        // backing store for the returned sessions' entries
	seen     []uint32          // page → the last stream (generation) that read it
	gen      uint32            // this stream's generation
	maximal  session.MaximalFilter
}

// sraNode is a constructed session as a path: its last entry, the node of
// the session it extended (-1 for a wave-1 session) and its length.
type sraNode struct{ entry, parent, len int32 }

// maxKeptLinkWords bounds the link rows (n²/64 words) a lane keeps after a
// candidate: 256 KiB, a candidate of 1,448 entries.
const maxKeptLinkWords = 1 << 15

// Lend implements Reconstructor.
func (h SmartSRA) Lend() (func([]session.Session, session.Stream) []session.Session, func()) {
	scr := new(sraScratch)
	return func(dst []session.Session, st session.Stream) []session.Session {
		return h.appendSessions(dst, st, scr)
	}, scr.arena.rewind
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
	// The algorithm keeps only maximal sequences. Where no page repeats in
	// the stream, the waves built no session another one holds and no
	// duplicate (DESIGN.md §3, "Maximality by construction"); elsewhere the
	// filter enforces it. It allocates only when it drops a session; copy
	// the kept tail back in place then.
	if scr.repeats(stream.Entries, h.Graph.NumPages()) {
		kept := scr.maximal.Keep(dst[start:])
		if len(kept) != len(dst)-start {
			dst = dst[:start+copy(dst[start:], kept)]
		}
	}
	return dst
}

// repeats reports whether a page occurs twice in entries, or lies outside
// the graph's pages, which have no stamp. Stamps are never cleared: each
// call stamps with a generation of its own.
func (scr *sraScratch) repeats(entries []session.Entry, pages int) bool {
	if len(scr.seen) < pages {
		scr.seen = make([]uint32, pages)
	}
	if scr.gen++; scr.gen == 0 { // wrapped: a stamp could match again
		clear(scr.seen)
		scr.gen = 1
	}
	for _, e := range entries {
		if uint(e.Page) >= uint(len(scr.seen)) || scr.seen[e.Page] == scr.gen {
			return true
		}
		scr.seen[e.Page] = scr.gen
	}
	return false
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
// UnixNano by index. Steps I and III both ask whether one entry is a ρ-valid
// referrer of another (strictly earlier, within ρ, its page linking to the
// other's), so each pair is probed once, into bit rows. A session is a node:
// its last entry and the session it extended. The sets hold node ids, and
// only the final sessions are written out, once each.
func (h SmartSRA) phase2Waves(cand []session.Entry, t []int64, scr *sraScratch, rho int64) [][]session.Entry {
	n := len(cand)
	w := (n + 63) >> 6
	links := slices.Grow(scr.links[:0], n*w)[:n*w]
	clear(links)
	for i := range cand {
		row := links[i*w : (i+1)*w]
		for j := range cand {
			if t[j] < t[i] && t[i]-t[j] <= rho && h.Graph.HasEdge(cand[j].Page, cand[i].Page) {
				row[j>>6] |= 1 << (j & 63)
			}
		}
	}
	live := slices.Grow(scr.live[:0], w)[:w]
	clear(live)
	for i := range cand {
		live[i>>6] |= 1 << (i & 63)
	}
	nodes, set, tset, wave, extended := scr.nodes[:0], scr.set[:0], scr.tset[:0], scr.wave, scr.extended
	for left := n; left > 0; {
		// Step I: collect pages with no remaining referrer — no EARLIER live
		// entry's bit in their row. See DESIGN.md for the j>i / j<i
		// pseudocode typo note; this reading matches the paper's worked
		// example (Table 4).
		wave = wave[:0]
		for k, word := range live {
			for ; word != 0; word &= word - 1 {
				i := k<<6 | bits.TrailingZeros64(word)
				row := links[i*w:]
				refs := row[k] & live[k] & (1<<(i&63) - 1)
				for m := 0; m < k && refs == 0; m++ {
					refs = row[m] & live[m]
				}
				if refs == 0 {
					wave = append(wave, int32(i))
				}
			}
		}
		// Step II: the wave leaves the live set. The earliest live entry
		// always qualifies, so progress is guaranteed.
		for _, i := range wave {
			live[i>>6] &^= 1 << (i & 63)
		}
		left -= len(wave)

		// Step III: extend the constructed sessions.
		if len(set) == 0 {
			for _, i := range wave {
				set = append(set, int32(len(nodes)))
				nodes = append(nodes, sraNode{entry: i, parent: -1, len: 1})
			}
			continue
		}
		extended = slices.Grow(extended[:0], len(set))[:len(set)]
		clear(extended)
		tset = tset[:0]
		// Every wave page attaches to some session here: the referrer that
		// kept it out of the previous wave left a session ending in itself
		// (DESIGN.md, "Orphan pages in Phase 2").
		for _, i := range wave {
			row := links[int(i)*w:]
			for k, id := range set {
				if last := nodes[id].entry; row[last>>6]&(1<<(last&63)) != 0 {
					tset = append(tset, int32(len(nodes)))
					nodes = append(nodes, sraNode{entry: i, parent: id, len: nodes[id].len + 1})
					extended[k] = true
				}
			}
		}
		for k, id := range set {
			if !extended[k] {
				tset = append(tset, id)
			}
		}
		set, tset = tset, set // swap ping/pong
	}
	out := scr.out[:0]
	for _, id := range set {
		s := scr.arena.alloc(int(nodes[id].len))
		for k := len(s) - 1; k >= 0; k-- {
			s[k] = cand[nodes[id].entry]
			id = nodes[id].parent
		}
		out = append(out, s)
	}
	if cap(links) > maxKeptLinkWords {
		links = nil
	}
	scr.links, scr.live, scr.wave, scr.extended = links, live, wave, extended
	scr.nodes, scr.set, scr.tset, scr.out = nodes, set, tset, out
	return out
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
// is n-1 edge probes and allocation-free, versus the slow path's n² link
// probes and n waves; on a non-chain candidate it bails at the first
// violation and phase2 proceeds normally.
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
	scr.out = append(scr.out[:0], scr.arena.cloneAll(cand))
	return scr.out, true
}
