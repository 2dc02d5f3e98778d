package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"smartsra/internal/session"
)

// TestPipeDeliversWhatWasWritten: three lines go down a pipe, the third
// closing its user's burst, and the writer keeps the pipe open — writing
// nothing more — until that session has reached the sink. An ingestion that
// waits for a chunk to fill never sinks it; then the writer's timeout fails
// the pipe. Ingest leaves no goroutine behind: clf's parser, blocked in Read
// while the pipe was idle, ends with the input.
func TestPipeDeliversWhatWasWritten(t *testing.T) {
	g := goldenGraph()
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	lines := []string{
		tailRec("u", "/P1.html", t0).String() + "\n",
		tailRec("u", "/P13.html", t0.Add(2*time.Minute)).String() + "\n",
		tailRec("u", "/P1.html", t0.Add(13*time.Minute)).String() + "\n", // an 11-minute gap
	}
	st, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	pr, pw := io.Pipe()
	sunk := make(chan struct{})
	go func() {
		for _, line := range lines {
			io.WriteString(pw, line)
		}
		select {
		case <-sunk:
			pw.Close()
		case <-time.After(5 * time.Second):
			pw.CloseWithError(errors.New("the writer gave up waiting"))
		}
	}()
	var got []string
	_, err = st.Ingest(pr, func(s []session.Session) {
		for i := range s {
			got = append(got, fmt.Sprint(s[i].User, s[i].Len()))
		}
		if len(got) == 1 {
			close(sunk)
		}
	}, nil)
	if err != nil || len(got) != 1 || got[0] != "u2" {
		t.Errorf("want session u2 sunk while the writer holds the pipe open; got %v, err %v", got, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Ingest returned, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
