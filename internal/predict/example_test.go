package predict_test

import (
	"fmt"
	"math/rand"
	"time"

	"smartsra/internal/heuristics"
	"smartsra/internal/predict"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// ExampleModel_TopK trains a next-page predictor and queries it with a
// navigation context it never saw verbatim (backoff to shorter contexts).
func ExampleModel_TopK() {
	t0 := time.Date(2006, 1, 2, 12, 0, 0, 0, time.UTC)
	mk := func(pages ...webgraph.PageID) session.Session {
		s := session.Session{User: "u"}
		for i, p := range pages {
			s.Entries = append(s.Entries, session.Entry{
				Page: p, Time: t0.Add(time.Duration(i) * time.Minute),
			})
		}
		return s
	}
	model, err := predict.Train([]session.Session{
		mk(1, 2, 3), mk(1, 2, 3), mk(1, 2, 4),
	}, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(model.TopK([]webgraph.PageID{1, 2}, 2)) // seen context
	fmt.Println(model.TopK([]webgraph.PageID{9, 2}, 1)) // backoff to [2]
	// Output:
	// [3 4]
	// [3]
}

// ExampleModel_HitRate is the downstream payoff of session reconstruction:
// a next-page predictor trained on the sessions each heuristic rebuilds from
// the first two thirds of 3,000 agents' server log, scored by top-k hit rate
// on the other third's ground-truth navigation. Training on ground truth
// itself is the ceiling.
func ExampleModel_HitRate() {
	g, err := webgraph.GenerateTopology(webgraph.PaperTopology(), rand.New(rand.NewSource(2006)))
	if err != nil {
		fmt.Println(err)
		return
	}
	params := simulator.PaperParams()
	params.Agents = 3000
	sim, err := simulator.Run(g, params)
	if err != nil {
		fmt.Println(err)
		return
	}
	cut := len(sim.Streams) * 2 / 3
	evalUsers := make(map[string]bool)
	for _, st := range sim.Streams[cut:] {
		evalUsers[st.User] = true
	}
	var evalReal, trainReal []session.Session
	for _, r := range sim.Real {
		if evalUsers[r.User] {
			evalReal = append(evalReal, r)
		} else {
			trainReal = append(trainReal, r)
		}
	}
	fmt.Printf("training on %d users' logs, evaluating on %d ground-truth sessions\n", cut, len(evalReal))
	fmt.Printf("%-22s %-10s %-10s %s\n", "training sessions from", "hit@1", "hit@3", "transitions")
	report := func(name string, train []session.Session) {
		model, err := predict.Train(train, 2)
		if err != nil {
			fmt.Println(err)
			return
		}
		h1, _ := model.HitRate(evalReal, 1)
		h3, n := model.HitRate(evalReal, 3)
		fmt.Printf("%-22s %-10.3f %-10.3f %d\n", name, h1, h3, n)
	}
	for _, c := range []struct {
		name string
		h    heuristics.Reconstructor
	}{
		{"heur1 (time-total)", heuristics.NewTimeTotal()},
		{"heur2 (time-gap)", heuristics.NewTimeGap()},
		{"heur3 (navigation)", heuristics.NewNavigation(g)},
		{"heur4 (Smart-SRA)", heuristics.NewSmartSRA(g)},
	} {
		report(c.name, heuristics.ReconstructAll(c.h, sim.Streams[:cut]))
	}
	report("ground truth (ceiling)", trainReal)
	// Output:
	// training on 2000 users' logs, evaluating on 9284 ground-truth sessions
	// training sessions from hit@1      hit@3      transitions
	// heur1 (time-total)     0.062      0.175      13267
	// heur2 (time-gap)       0.063      0.175      13267
	// heur3 (navigation)     0.045      0.174      13267
	// heur4 (Smart-SRA)      0.070      0.211      13267
	// ground truth (ceiling) 0.077      0.212      13267
}
