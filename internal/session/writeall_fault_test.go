package session_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"smartsra/internal/faultio"
	"smartsra/internal/session"
)

// TestWriteAllShortWrite pins error propagation through the chunked encoder
// (in package session_test: faultio's imports reach back to session): a
// torn write on the second chunk surfaces as WriteAll's error, wrapping the
// cause; nothing is written after it; and what did reach the writer is the
// first chunk whole plus a prefix of the second — the torn tail callers
// truncate away by their known-good offset.
func TestWriteAllShortWrite(t *testing.T) {
	var in []session.Session
	for i := 0; i < 6000; i++ {
		in = append(in, session.Session{
			User:    fmt.Sprintf("10.2.%d.%d", i>>8, i&255),
			Entries: []session.Entry{{Page: 1}, {Page: 22}, {Page: 333}},
		})
	}
	var whole bytes.Buffer
	if err := session.WriteAll(&whole, in); err != nil {
		t.Fatal(err)
	}

	var torn bytes.Buffer
	w := &faultio.Writer{W: &torn, Schedule: faultio.FaultAt(faultio.Short, 1)}
	err := session.WriteAll(w, in)
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("WriteAll over a torn second write returned %v, want the injected fault", err)
	}
	if w.Calls() != 2 {
		t.Errorf("writer saw %d writes, want 2 (nothing after the failed one)", w.Calls())
	}
	if torn.Len() == 0 || torn.Len() >= whole.Len() || !bytes.HasPrefix(whole.Bytes(), torn.Bytes()) {
		t.Errorf("torn output (%d bytes) is not a proper prefix of the whole (%d bytes)", torn.Len(), whole.Len())
	}

	// A clean retry is unaffected by the failed call's recycled buffer.
	var again bytes.Buffer
	if err := session.WriteAll(&again, in); err != nil || !bytes.Equal(again.Bytes(), whole.Bytes()) {
		t.Errorf("WriteAll after a failed call: err %v, %d bytes, want %d", err, again.Len(), whole.Len())
	}
}
