package main

import (
	"testing"

	"smartsra/internal/checkpoint"
)

// TestDropLedgerCoalescing: adjacent drops merge into one span, a gap starts
// a new one, and the record count tracks every drop regardless of shape.
func TestDropLedgerCoalescing(t *testing.T) {
	l := &dropLedger{}
	l.record(100, 150) // first record
	l.record(150, 200) // adjacent: coalesces
	l.record(200, 260) // adjacent: coalesces
	l.record(400, 450) // gap: new span
	spans := l.snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	if spans[0] != (checkpoint.DropSpan{Start: 100, End: 260, Records: 3}) {
		t.Errorf("coalesced span = %+v, want {100 260 3}", spans[0])
	}
	if spans[1] != (checkpoint.DropSpan{Start: 400, End: 450, Records: 1}) {
		t.Errorf("second span = %+v, want {400 450 1}", spans[1])
	}
	if l.pending() != 4 {
		t.Errorf("pending = %d, want 4", l.pending())
	}
	// Degenerate spans are ignored.
	l.record(500, 500)
	if l.pending() != 4 {
		t.Errorf("empty span changed pending to %d", l.pending())
	}
}

// TestDropLedgerRestore: checkpoint restore prunes spans the log replay will
// re-ingest anyway (at or past the replay offset) and clips a straddler.
func TestDropLedgerRestore(t *testing.T) {
	l := &dropLedger{}
	l.restore([]checkpoint.DropSpan{
		{Start: 0, End: 100, Records: 2},   // entirely before the offset: kept
		{Start: 100, End: 300, Records: 4}, // straddles: clipped to [100,200)
		{Start: 200, End: 400, Records: 3}, // at/past the offset: dropped
		{Start: 1000, End: 1100, Records: 1},
	}, 200)
	spans := l.snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans after restore, want 2: %+v", len(spans), spans)
	}
	if spans[0] != (checkpoint.DropSpan{Start: 0, End: 100, Records: 2}) {
		t.Errorf("kept span = %+v", spans[0])
	}
	if spans[1].Start != 100 || spans[1].End != 200 {
		t.Errorf("straddler clipped to [%d,%d), want [100,200)", spans[1].Start, spans[1].End)
	}
}

// TestDropLedgerTakePutBack: take hands out the oldest span and putBack
// re-inserts a remainder at the front, preserving reconciliation order.
func TestDropLedgerTakePutBack(t *testing.T) {
	l := &dropLedger{}
	l.record(0, 10)
	l.record(20, 30)
	sp, ok := l.take()
	if !ok || sp.Start != 0 {
		t.Fatalf("take returned %+v ok=%v, want the oldest span", sp, ok)
	}
	if l.pending() != 1 {
		t.Fatalf("pending = %d after take, want 1", l.pending())
	}
	// Half the span processed: the clipped remainder goes back first.
	l.putBack(checkpoint.DropSpan{Start: 5, End: 10, Records: 1})
	sp, ok = l.take()
	if !ok || sp.Start != 5 {
		t.Fatalf("take after putBack returned %+v, want the remainder first", sp)
	}
	sp, ok = l.take()
	if !ok || sp.Start != 20 {
		t.Fatalf("final take returned %+v, want the second span", sp)
	}
	if _, ok := l.take(); ok {
		t.Fatal("take succeeded on an empty ledger")
	}
	// Degenerate putBack is ignored.
	l.putBack(checkpoint.DropSpan{Start: 10, End: 10, Records: 0})
	if l.pending() != 0 {
		t.Fatalf("degenerate putBack left pending = %d", l.pending())
	}
}

// TestDropLedgerFlushLost: rotation invalidates every span's offsets; the
// ledger empties and reports how many records degraded to offline recovery.
func TestDropLedgerFlushLost(t *testing.T) {
	l := &dropLedger{}
	l.record(0, 10)
	l.record(10, 20)
	l.record(50, 60)
	if lost := l.flushLost(); lost != 3 {
		t.Fatalf("flushLost = %d, want 3", lost)
	}
	if l.pending() != 0 || len(l.snapshot()) != 0 {
		t.Fatal("ledger not empty after flushLost")
	}
}
