package session

import (
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

// CapturedByAny reports whether any of the candidate sessions captures r.
func CapturedByAny(candidates []Session, r Session) bool {
	for _, h := range candidates {
		if Captures(h, r) {
			return true
		}
	}
	return false
}

// IsSubsequence reports whether needle occurs in haystack as a (not
// necessarily contiguous) order-preserving subsequence. This is NOT the
// paper's capture relation — it is provided for analyses that want the
// looser notion (e.g. pattern mining support counting).
func IsSubsequence(haystack, needle []webgraph.PageID) bool {
	j := 0
	for _, p := range haystack {
		if j == len(needle) {
			return true
		}
		if p == needle[j] {
			j++
		}
	}
	return j == len(needle)
}

// Subsumes reports whether session a subsumes session b: b's pages occur
// contiguously within a's. Smart-SRA guarantees its output sessions are
// maximal, i.e. no output session subsumes another (unless equal).
func Subsumes(a, b Session) bool {
	return len(a.Entries) >= len(b.Entries) && entryIndexOf(a.Entries, b.Entries) >= 0
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
// keep their first occurrence.
//
// This runs once per wave set inside the sessionizer hot path, where the
// candidate sets are almost always tiny (one to a handful of sessions), so
// the pass is tuned for small n rather than asymptotics: pages are compared
// in place on the entry slices (no per-session page extraction), the O(1)
// length guard prunes pairs before any sequence scan, and the output slice
// is only allocated once the first subsumed session is found — the common
// all-maximal case returns the input untouched.
func MaximalOnly(sessions []Session) []Session {
	if len(sessions) <= 1 {
		return sessions
	}
	var out []Session
	for i, s := range sessions {
		n := len(s.Entries)
		subsumed := false
		for j := range sessions {
			m := len(sessions[j].Entries)
			if j == i || m < n {
				continue
			}
			// Equal-length subsumption means equality: drop later duplicates.
			if m == n && j > i {
				continue
			}
			if entryIndexOf(sessions[j].Entries, s.Entries) >= 0 {
				subsumed = true
				break
			}
		}
		if subsumed {
			if out == nil {
				out = append(make([]Session, 0, len(sessions)-1), sessions[:i]...)
			}
		} else if out != nil {
			out = append(out, s)
		}
	}
	if out == nil {
		return sessions
	}
	return out
}
