package mining_test

import (
	"fmt"
	"time"

	"smartsra/internal/mining"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

func sessionOf(pages ...int) session.Session {
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	s := session.Session{User: "u"}
	for i, p := range pages {
		s.Entries = append(s.Entries, session.Entry{
			Page: webgraph.PageID(p), Time: t0.Add(time.Duration(i) * time.Minute),
		})
	}
	return s
}

// ExampleMine finds frequent navigation paths, prints the frequent page
// pairs, and the rules the paths imply.
func ExampleMine() {
	sessions := []session.Session{
		sessionOf(1, 2, 3),
		sessionOf(1, 2, 3),
		sessionOf(1, 2, 4),
	}
	patterns, err := mining.Mine(sessions, mining.Config{MinSupport: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, p := range patterns {
		if len(p.Pages) == 2 {
			fmt.Println(p)
		}
	}
	for _, r := range mining.Rules(patterns, 0.6) {
		fmt.Println(r)
	}
	// Output:
	// [1 2] x3
	// [2 3] x2
	// [1] => 2 (conf 1.00, sup 3)
	// [2] => 3 (conf 0.67, sup 2)
	// [1 2] => 3 (conf 0.67, sup 2)
}
