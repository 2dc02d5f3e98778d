package core_test

import (
	"fmt"
	"strings"

	"smartsra/internal/core"
	"smartsra/internal/webgraph"
)

// ExamplePipeline_ProcessLog runs the full reactive pipeline — parse, clean,
// identify users, reconstruct sessions with Smart-SRA — on a small CLF log
// over the paper's Figure 1 topology.
func ExamplePipeline_ProcessLog() {
	g, _ := webgraph.PaperFigure1()
	log := strings.Join([]string{
		`10.0.0.1 - - [02/Jan/2006:12:00:00 +0000] "GET /P1.html HTTP/1.1" 200 100`,
		`10.0.0.1 - - [02/Jan/2006:12:02:00 +0000] "GET /P13.html HTTP/1.1" 200 100`,
		`10.0.0.1 - - [02/Jan/2006:12:03:00 +0000] "GET /style.css HTTP/1.1" 200 100`,
		`10.0.0.1 - - [02/Jan/2006:12:04:00 +0000] "GET /P34.html HTTP/1.1" 200 100`,
	}, "\n")

	p, err := core.NewPipeline(core.Config{Graph: g})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := p.ProcessLog(nil, strings.NewReader(log))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Stats)
	for _, s := range res.Sessions {
		fmt.Println(s)
	}
	// Output:
	// records=4 malformed=0 filtered=1 unresolved=0 users=1 sessions=1
	// 10.0.0.1:[0 1 4]
}
