package clf

// internTable is the string-intern arena of the chunk parse path. Real
// access logs repeat a small set of hosts, URIs, referers, and user agents
// millions of times; interning makes the []byte→string conversion
// allocation-free for every repeat, cutting the last per-record allocations
// (Host and URI) of the byte fast path to amortized ~0.
//
// Table lifetime is the owner's choice, with boundedness always preserved:
// the sequential Scanner scopes its table to ~readChunkSize bytes of input,
// while the chunk engine's parser keeps one table across chunks and, before
// parsing a chunk, retires it once it holds maxInternEntries strings — so a
// table holds at most maxInternEntries plus one chunk's distinct strings.
// Persisting across chunks matters beyond allocation count: a host seen in
// every chunk stays the SAME string, so downstream map lookups keyed by it
// (the sessionizer's per-user buffers) hit the pointer-equality fast path
// instead of comparing bytes. No locking: a table is only ever used by one
// goroutine.
type internTable struct {
	m map[string]string
}

// maxInternEntries is the size at which a persistent table is retired. It
// must exceed the users a Tail holds open — a few thousand on a day-long
// log, whose clock closes quiet users — for their keys to stay the strings
// the Tail's map holds; past them, the table only caches users the Tail has
// already evicted, and the URIs and tokens a log repeats. A log with
// unbounded distinct hosts or URIs cannot grow an unbounded table (the
// bounded-memory streaming contract).
const maxInternEntries = 1 << 12

// full reports that the table has reached its retirement size.
func (it *internTable) full() bool { return len(it.m) >= maxInternEntries }

// newInternTable returns an empty table.
func newInternTable() *internTable {
	return &internTable{m: make(map[string]string, 64)}
}

// str converts b to a string, returning the interned copy when the same
// bytes were seen before in this table's lifetime. The map lookup with a
// string(b) key does not allocate (the compiler elides the conversion); only
// first occurrences pay the copy. A nil table degrades to a plain conversion, so
// the single-line entry points can share the parse code without a table.
func (it *internTable) str(b []byte) string {
	if it == nil {
		return string(b)
	}
	if s, ok := it.m[string(b)]; ok {
		return s
	}
	s := string(b)
	it.m[s] = s
	return s
}

// field converts a parsed field like str, but routes through the static
// token intern first ("-", methods, protocol versions), which is cheaper
// than a map probe for the tokens that dominate those fields.
func (it *internTable) field(b []byte) string {
	switch string(b) {
	case "-":
		return "-"
	case "":
		return ""
	}
	return it.str(b)
}
