package session

import (
	"slices"

	"smartsra/internal/webgraph"
)

// Index is the module's containment index: it finds, for each of a set of
// needle page sequences, the haystacks that hold it contiguously — the
// relation Captures defines — without testing every (needle, haystack)
// pair. eval's capture graph and MaximalFilter's large sets both go through
// it.
//
// Needles are declared first (Want), then the haystacks are indexed at once
// (Build): every position where a wanted needle's first page occurs is
// listed under that page, in ascending (haystack, position) order, with the
// page that follows it, and each page's positions lie next to each other.
// Containers reads only its needle's first page's run, passes over
// positions whose next page is not the needle's second without reading the
// haystack, and compares the remaining pages in place. Reset forgets the
// needles and haystacks at the cost of the needles, not of the page table,
// so one Index serves set after set without allocating once its buffers have
// grown. Pages must be non-negative; the table is as long as the largest
// first page of a wanted needle. The zero Index is ready to use.
type Index struct {
	head  []pageRun // head[p]: where p's occurrences lie in occ
	hays  [][]webgraph.PageID
	occ   []occurrence
	found []occurrence      // Build's occurrences in scan order
	wants []webgraph.PageID // the pages head has open
}

// pageRun is a wanted page's occurrences, occ[lo:hi]; lo is unwanted for
// any other page. During Build's scan, hi counts the occurrences.
type pageRun struct{ lo, hi int32 }

const unwanted = -1

// occurrence is one position of a wanted first page: haystack hay holds it
// at pages[at], followed by page second (noPage at the haystack's end).
type occurrence struct {
	hay, at int32
	second  webgraph.PageID
}

const noPage = -1

// Want declares needle, which Containers may then be asked for. Wanting a
// needle twice is harmless; an empty needle needs nothing. Every needle must
// be wanted before Build.
func (ix *Index) Want(needle []webgraph.PageID) {
	if len(needle) == 0 {
		return
	}
	p := needle[0]
	for int(p) >= len(ix.head) {
		ix.head = append(ix.head, pageRun{lo: unwanted})
	}
	if ix.head[p].lo == unwanted {
		ix.head[p] = pageRun{}
		ix.wants = append(ix.wants, p)
	}
}

// Build indexes hays, haystack h being hays[h]; the Index keeps hays until
// Reset. One scan finds every occurrence of a wanted page and counts them by
// page; the occurrences are then laid out page by page, each page's in scan
// order, which is ascending.
func (ix *Index) Build(hays [][]webgraph.PageID) {
	ix.hays = hays
	found := ix.found[:0]
	for h, hay := range hays {
		for at, p := range hay {
			if uint(p) >= uint(len(ix.head)) || ix.head[p].lo == unwanted {
				continue
			}
			ix.head[p].hi++
			second := webgraph.PageID(noPage)
			if at+1 < len(hay) {
				second = hay[at+1]
			}
			found = append(found, occurrence{hay: int32(h), at: int32(at), second: second})
		}
	}
	ix.found = found
	lo := int32(0)
	for _, p := range ix.wants {
		r := &ix.head[p]
		r.lo, r.hi, lo = lo, lo, lo+r.hi
	}
	ix.occ = slices.Grow(ix.occ[:0], len(found))[:len(found)]
	for _, oc := range found {
		r := &ix.head[hays[oc.hay][oc.at]]
		ix.occ[r.hi] = oc
		r.hi++
	}
}

// Containers calls yield with every haystack that holds needle contiguously,
// in ascending order, each once, until yield returns false. An empty needle
// is held by every haystack; a needle that was not wanted is reported in
// none.
func (ix *Index) Containers(needle []webgraph.PageID, yield func(hay int) bool) {
	if len(needle) == 0 {
		for h := range ix.hays {
			if !yield(h) {
				return
			}
		}
		return
	}
	if uint(needle[0]) >= uint(len(ix.head)) || ix.head[needle[0]].lo == unwanted {
		return
	}
	// Each occurrence names its own first two pages; compare the rest.
	second, skip := webgraph.PageID(noPage), 1
	if len(needle) > 1 {
		second, skip = needle[1], 2
	}
	r := ix.head[needle[0]]
	last := int32(-1)
	for _, oc := range ix.occ[r.lo:r.hi] {
		if oc.hay == last || skip == 2 && oc.second != second {
			continue
		}
		hay := ix.hays[oc.hay]
		end := int(oc.at) + len(needle)
		if end > len(hay) || !slices.Equal(hay[int(oc.at)+skip:end], needle[skip:]) {
			continue
		}
		last = oc.hay
		if !yield(int(oc.hay)) {
			return
		}
	}
}

// Reset forgets every needle and haystack, keeping the buffers.
func (ix *Index) Reset() {
	for _, p := range ix.wants {
		ix.head[p] = pageRun{lo: unwanted}
	}
	ix.wants = ix.wants[:0]
	ix.hays = nil
	ix.occ = ix.occ[:0]
}
