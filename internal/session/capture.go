package session

import (
	"slices"

	"smartsra/internal/webgraph"
)

// Captures reports whether reconstructed session h captures real session r
// in the paper's sense (§5.1): r's page sequence occurs as a CONTIGUOUS
// subsequence of h's page sequence, preserving order with no interruptions.
// The paper's example makes contiguity explicit: R=[P1,P3,P5] is captured by
// H=[P9,P1,P3,P5,P8] but NOT by H=[P1,P9,P3,P5,P8], "because P9 interrupts
// R in H".
//
// Empty real sessions are vacuously captured.
//
// Pages are compared in place on the entry slices, so a probe allocates
// nothing. This is the relation's one definition: eval's capture graph finds
// the same pairs through a page-occurrence index, and its tests hold it to
// this function.
func Captures(h, r Session) bool {
	return entryIndexOf(h.Entries, r.Entries) >= 0
}

// entryIndexOf returns the first index at which needle's pages occur
// contiguously in haystack, or -1, comparing pages in place so callers need
// not materialize page sequences. This is the "ordinary string searching
// algorithm" the paper adopts; page sequences are short, so the naive
// O(n·m) scan is the right tool. The first-page probe skips the inner loop
// for the overwhelmingly common mismatch case.
func entryIndexOf(haystack, needle []Entry) int {
	if len(needle) == 0 {
		return 0
	}
	if len(needle) > len(haystack) {
		return -1
	}
	first := needle[0].Page
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i].Page != first {
			continue
		}
		for j := 1; j < len(needle); j++ {
			if haystack[i+j].Page != needle[j].Page {
				continue outer
			}
		}
		return i
	}
	return -1
}

// MaximalOnly filters out sessions strictly subsumed by another session in
// the set, preserving the original order of the survivors. Exact duplicates
// keep their first occurrence. The input comes back untouched when nothing
// is dropped. It is a MaximalFilter's Keep on a filter of its own.
func MaximalOnly(sessions []Session) []Session {
	var f MaximalFilter
	return f.Keep(sessions)
}

// MaximalFilter is MaximalOnly with its working memory kept from call to
// call, so a caller that filters set after set — Smart-SRA's reconstruction
// scratch — allocates only when it drops a session, once its buffers have
// grown. The zero MaximalFilter is ready to use; one must not be used by two
// goroutines at once.
//
// Smart-SRA filters every stream's sessions. A user's stream yields a
// handful, for which a pairwise scan, with pages compared in place and an
// O(1) length guard before any sequence scan, is cheapest. One dense
// candidate yields thousands (a crawler's sweep of a 300-page site: 9,759
// sessions), and there the pairs are the whole cost; from indexedMaximalMin
// sessions on, each session probes only the positions of its own first page,
// and reads a session's pages only where its second page follows, through
// the containment Index.
type MaximalFilter struct {
	ix    Index
	pages []webgraph.PageID   // the sessions' pages, packed
	lists [][]webgraph.PageID // lists[i] is session i's run of pages
}

// indexedMaximalMin is the set size from which Keep goes through the
// containment Index: in BenchmarkMaximalOnly, on a filter whose buffers have
// grown, the index is the slower at 10 sessions (×1.27) and the faster from
// 12 on (×0.89 there, ×0.14 at 256).
const indexedMaximalMin = 12

// maxKeptPages bounds the packed pages a MaximalFilter keeps between calls,
// and so its Index's occurrences (≈ 28 bytes a page in all): a set larger
// than that, such as one dense candidate's sessions, is let go rather than
// held until the next. The largest set of a Figure 9 sweep is 224 pages.
const maxKeptPages = 1 << 12

// Keep returns the sessions of the set no other session outranks (see
// MaximalOnly): sessions itself when it drops none, else a new slice.
func (f *MaximalFilter) Keep(sessions []Session) []Session {
	if len(sessions) <= 1 {
		return sessions
	}
	if len(sessions) >= indexedMaximalMin {
		if out, ok := f.indexed(sessions); ok {
			return out
		}
	}
	return pairwise(sessions)
}

// pairwise is Keep by testing every pair.
func pairwise(sessions []Session) []Session {
	return keepUnless(sessions, func(i int) bool {
		for j := range sessions {
			if outranks(sessions, j, i) && entryIndexOf(sessions[j].Entries, sessions[i].Entries) >= 0 {
				return true
			}
		}
		return false
	})
}

// outranks reports whether session j, if it holds session i, drops it: j is
// longer, or equal-length (equal, then) and earlier.
func outranks(sessions []Session, j, i int) bool {
	m, n := len(sessions[j].Entries), len(sessions[i].Entries)
	return j != i && (m > n || m == n && j < i)
}

// indexed is Keep through the containment Index over the sessions' packed
// pages. It declines (false) a set whose pages the Index's page table cannot
// take: a negative page, or a first page far above the set's size.
func (f *MaximalFilter) indexed(sessions []Session) ([]Session, bool) {
	total, maxFirst := 0, webgraph.PageID(0)
	for i := range sessions {
		for k, e := range sessions[i].Entries {
			if e.Page < 0 {
				return nil, false
			}
			if k == 0 {
				maxFirst = max(maxFirst, e.Page)
			}
		}
		total += len(sessions[i].Entries)
	}
	if int(maxFirst) > 8*total+4096 {
		return nil, false
	}
	f.pages, f.lists = slices.Grow(f.pages[:0], total), f.lists[:0]
	for i := range sessions {
		lo := len(f.pages)
		for _, e := range sessions[i].Entries {
			f.pages = append(f.pages, e.Page)
		}
		f.lists = append(f.lists, f.pages[lo:len(f.pages):len(f.pages)])
	}
	for _, l := range f.lists {
		f.ix.Want(l)
	}
	f.ix.Build(f.lists)
	out := keepUnless(sessions, func(i int) bool {
		dropped := false
		f.ix.Containers(f.lists[i], func(j int) bool {
			dropped = outranks(sessions, j, i)
			return !dropped
		})
		return dropped
	})
	if cap(f.pages) > maxKeptPages {
		*f = MaximalFilter{}
	} else {
		f.ix.Reset()
		clear(f.lists)
	}
	return out, true
}

// keepUnless returns the sessions dropped rejects, in order: sessions itself
// when it rejects none, so the common all-maximal case allocates nothing.
func keepUnless(sessions []Session, dropped func(i int) bool) []Session {
	var out []Session
	for i := range sessions {
		if dropped(i) {
			if out == nil {
				out = append(make([]Session, 0, len(sessions)-1), sessions[:i]...)
			}
		} else if out != nil {
			out = append(out, sessions[i])
		}
	}
	if out == nil {
		return sessions
	}
	return out
}
