package eval_test

import (
	"fmt"

	"smartsra/internal/eval"
)

// ExampleEvaluatePointOn scores the four heuristics against ground truth at one
// point of the paper's evaluation: Table 5 defaults, trimmed from 10,000
// agents to 2,000. "matched" is one-to-one credit, the paper's "correctly
// reconstructed sessions"; "exists" counts a real session if any candidate
// captures it. heur3's mean length shows the backward-movement inflation of
// §2.2, and heur4 (Smart-SRA) produces roughly one candidate per real
// session.
func ExampleEvaluatePointOn() {
	cfg := eval.PaperDefaults()
	cfg.Params.Agents = 2000
	g, err := eval.Topology(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	point, err := eval.EvaluatePointOn(g, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Table 5 defaults: STP=5%% LPP=30%% NIP=30%%, %d agents, %d real sessions\n",
		cfg.Params.Agents, point.RealSessions)
	fmt.Printf("%-7s %-18s %-18s %s\n", "", "matched accuracy", "exists accuracy", "reconstructed sessions")
	for _, h := range eval.HeuristicNames {
		fmt.Printf("%-7s %-18s %-18s %s\n",
			h, point.Matched[h], point.Exists[h], point.Reconstructed[h])
	}
	// Output:
	// Table 5 defaults: STP=5% LPP=30% NIP=30%, 2000 agents, 18450 real sessions
	//         matched accuracy   exists accuracy    reconstructed sessions
	// heur1   3569/18450 (19.3%) 11366/18450 (61.6%) sessions=4173 meanLen=8.82 medianLen=10.0 maxLen=17
	// heur2   2156/18450 (11.7%) 11936/18450 (64.7%) sessions=2277 meanLen=16.16 medianLen=12.0 maxLen=76
	// heur3   10106/18450 (54.8%) 16098/18450 (87.3%) sessions=11689 meanLen=4.49 medianLen=2.0 maxLen=2188
	// heur4   12474/18450 (67.6%) 13411/18450 (72.7%) sessions=18072 meanLen=2.48 medianLen=2.0 maxLen=14
}
