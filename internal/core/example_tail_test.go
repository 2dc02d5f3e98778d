package core_test

import (
	"fmt"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/webgraph"
)

// ExampleTail tails a log incrementally: sessions are emitted as soon as a
// user's activity burst closes.
func ExampleTail() {
	g, _ := webgraph.PaperFigure1()
	tl, err := core.NewTail(core.Config{Graph: g}, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	push := func(uri string, at time.Time) {
		rec := clf.Record{
			Host: "10.0.0.1", Time: at, Method: "GET", URI: uri,
			Protocol: "HTTP/1.1", Status: 200, Bytes: 1,
		}
		for _, s := range tl.Push(rec) {
			fmt.Printf("closed: %s\n", s.AppendText(nil))
		}
	}
	push("/P1.html", t0)
	push("/P13.html", t0.Add(2*time.Minute))
	push("/P1.html", t0.Add(40*time.Minute)) // >ρ gap closes the burst
	for _, s := range tl.Flush() {
		fmt.Printf("flushed: %s\n", s.AppendText(nil))
	}
	// Output:
	// closed: 10.0.0.1:[0 1]
	// flushed: 10.0.0.1:[0]
}
