package heuristics_test

import (
	"fmt"
	"time"

	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// ExampleSmartSRA reconstructs the paper's Table 3 request sequence into the
// three maximal sessions of Table 4.
func ExampleSmartSRA() {
	g, ids := webgraph.PaperFigure1()
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	names := []string{"P1", "P20", "P13", "P49", "P34", "P23"}
	minutes := []int{0, 6, 9, 12, 14, 15}
	stream := session.Stream{User: "10.0.0.7"}
	for i, n := range names {
		stream.Entries = append(stream.Entries, session.Entry{
			Page: ids[n], Time: t0.Add(time.Duration(minutes[i]) * time.Minute),
		})
	}

	rev := map[webgraph.PageID]string{}
	for n, id := range ids {
		rev[id] = n
	}
	h := heuristics.NewSmartSRA(g)
	for _, s := range heuristics.ReconstructAll(h, []session.Stream{stream}) {
		for i, e := range s.Entries {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Print(rev[e.Page])
		}
		fmt.Println()
	}
	// Output:
	// P1 P13 P49 P23
	// P1 P13 P34 P23
	// P1 P20 P23
}

// ExampleTimeGap splits a request stream at page-stay gaps above ρ.
func ExampleTimeGap() {
	_, ids := webgraph.PaperFigure1()
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	stream := session.Stream{User: "u", Entries: []session.Entry{
		{Page: ids["P1"], Time: t0},
		{Page: ids["P13"], Time: t0.Add(2 * time.Minute)},
		{Page: ids["P49"], Time: t0.Add(20 * time.Minute)}, // 18-minute gap
	}}
	for _, s := range heuristics.ReconstructAll(heuristics.NewTimeGap(), []session.Stream{stream}) {
		fmt.Println(s.Len(), "pages")
	}
	// Output:
	// 2 pages
	// 1 pages
}
