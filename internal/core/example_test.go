package core_test

import (
	"fmt"
	"strings"

	"smartsra/internal/core"
	"smartsra/internal/webgraph"
)

// ExampleNoHorizon runs the full reactive pipeline in batch — parse, clean,
// identify users, reconstruct each user's whole history with Smart-SRA — on a
// small CLF log over the paper's Figure 1 topology: a Tail with no burst
// horizon closes nothing while it reads, and Flush reconstructs everything.
func ExampleNoHorizon() {
	g, _ := webgraph.PaperFigure1()
	log := strings.Join([]string{
		`10.0.0.1 - - [02/Jan/2006:12:00:00 +0000] "GET /P1.html HTTP/1.1" 200 100`,
		`10.0.0.1 - - [02/Jan/2006:12:02:00 +0000] "GET /P13.html HTTP/1.1" 200 100`,
		`10.0.0.1 - - [02/Jan/2006:12:03:00 +0000] "GET /style.css HTTP/1.1" 200 100`,
		`10.0.0.1 - - [02/Jan/2006:12:04:00 +0000] "GET /P34.html HTTP/1.1" 200 100`,
	}, "\n")

	t, err := core.NewTail(core.Config{Graph: g}, core.NoHorizon)
	if err != nil {
		fmt.Println(err)
		return
	}
	if _, err := t.Ingest(strings.NewReader(log), nil, nil); err != nil {
		fmt.Println(err)
		return
	}
	sessions := t.Flush()
	fmt.Println(t.Stats())
	for _, s := range sessions {
		fmt.Printf("%s\n", s.AppendText(nil))
	}
	// Output:
	// records=4 malformed=0 filtered=1 unresolved=0 users=1 sessions=1
	// 10.0.0.1:[0 1 4]
}
