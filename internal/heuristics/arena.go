package heuristics

import "smartsra/internal/session"

// entryArena is the storage a lane (Lend) hands its sessions out of: their
// session.Entry slices come from a few large blocks instead of one heap
// allocation per session, and each session is written once, at its final
// length (Smart-SRA's Phase 2 builds its sessions as paths of integer nodes
// and writes only the final ones out). Returned slices have exact capacity
// (three-index slicing), so a caller appending to a retained session falls
// off the arena instead of clobbering a neighbour. Allocation is append-only within a
// block — handed-out regions are never rewritten — so a lane that is never
// released can append for as long as it lives: retained sessions pin at most
// one partially shared block, bounded by arenaMaxBlock. The one exception is
// rewind, the lane's release, once no session from the arena is alive.
type entryArena struct {
	block []session.Entry
	// next sizes the next block: seeded near the stream length so small
	// users get one small block, growing geometrically (capped) under
	// session-set blowup.
	next int
	// spilled counts the entries of blocks filled and left behind; rewind
	// reads it to learn how much one lending period really needed.
	spilled int
}

// arenaMaxBlock caps block growth so a pathological candidate does not make
// every later block huge.
const arenaMaxBlock = 4096

// arenaMaxRewound caps the block a rewind keeps (4 MiB of entries): a
// lending period larger than that goes back to arenaMaxBlock blocks the
// collector reclaims.
const arenaMaxRewound = 1 << 17

// rewind makes everything handed out so far reusable; the owner calls it
// only once no session from the arena is alive (a lane's release). A period
// that fit the current block just resets it. One that spilled over several
// gets a single block with half again its size, so a steady run of similar
// periods — a drain in equal batches — settles on one block and allocates
// nothing.
func (a *entryArena) rewind() {
	need := a.spilled + len(a.block)
	a.block = a.block[:0]
	if a.spilled > 0 && need <= arenaMaxRewound {
		a.block = make([]session.Entry, 0, need+need/2)
	}
	a.spilled = 0
}

// seed sizes a fresh arena's first block for a stream of n entries, so a
// small user gets one small block.
func (a *entryArena) seed(n int) {
	if a.block == nil {
		a.next = n + 8
	}
}

// alloc returns a zeroed n-entry slice with capacity exactly n.
func (a *entryArena) alloc(n int) []session.Entry {
	if cap(a.block)-len(a.block) < n {
		size := a.next
		if size < 64 {
			size = 64
		}
		if size > arenaMaxBlock {
			size = arenaMaxBlock
		}
		if size < n {
			size = n
		}
		a.spilled += len(a.block)
		a.block = make([]session.Entry, 0, size)
		a.next = size * 2
	}
	lo := len(a.block)
	a.block = a.block[:lo+n]
	return a.block[lo : lo+n : lo+n]
}

// cloneAll allocates an exact-size copy of sess.
func (a *entryArena) cloneAll(sess []session.Entry) []session.Entry {
	s := a.alloc(len(sess))
	copy(s, sess)
	return s
}
