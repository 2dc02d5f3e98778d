package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// simulatedLog produces a realistic record mix for equivalence tests.
func simulatedLog(t *testing.T, seed int64, agents int) (*webgraph.Graph, []clf.Record) {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 60, AvgOutDegree: 5, StartPageFraction: 0.1,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	params := simulator.PaperParams()
	params.Agents = agents
	params.Seed = seed
	sim, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	return g, sim.Log(g)
}

func sessionStrings(sessions []session.Session) []string {
	out := make([]string, len(sessions))
	for i, s := range sessions {
		out[i] = string(s.AppendText(nil))
	}
	return out
}

// TestShardedTailEquivalentToTail pins the determinism contract: for any
// shard count, a ShardedTail fed record by record through PushBatch emits
// exactly the sessions a single Tail's Push loop emits, in the same order.
func TestShardedTailEquivalentToTail(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		g, records := simulatedLog(t, seed, 80)
		for _, shards := range []int{1, 2, 3, 8, 32} {
			ref, err := NewTail(Config{Graph: g}, 0)
			if err != nil {
				t.Fatal(err)
			}
			st, err := NewShardedTail(Config{Graph: g}, 0, shards)
			if err != nil {
				t.Fatal(err)
			}
			var want, got []session.Session
			for i := range records {
				want = append(want, ref.Push(records[i])...)
				got = append(got, st.PushBatch(records[i:i+1])...)
			}
			want = append(want, ref.Flush()...)
			got = append(got, st.Flush()...)

			ws, gs := sessionStrings(want), sessionStrings(got)
			if len(ws) != len(gs) {
				t.Fatalf("seed=%d shards=%d: %d vs %d sessions", seed, shards, len(gs), len(ws))
			}
			for i := range ws {
				if ws[i] != gs[i] {
					t.Fatalf("seed=%d shards=%d: session %d differs:\ntail:    %s\nsharded: %s",
						seed, shards, i, ws[i], gs[i])
				}
			}
		}
	}
}

// TestPipelineParallelMatchesSequential pins the batch pipeline, a NoHorizon
// Tail whose log Ingest parses on a goroutine beside the caller, to a
// NoHorizon Tail pushed the sequential Scanner's records: same stats and
// sessions.
func TestPipelineParallelMatchesSequential(t *testing.T) {
	g, records := simulatedLog(t, 5, 120)
	var buf bytes.Buffer
	if err := clf.WriteAll(&buf, records); err != nil {
		t.Fatal(err)
	}
	log := buf.String()
	scanned, malformed, err := clf.ReadAll(strings.NewReader(log))
	if err != nil || malformed != 0 {
		t.Fatalf("ReadAll: %d malformed, err %v", malformed, err)
	}

	for _, h := range []heuristics.Reconstructor{heuristics.NewSmartSRA(g), heuristics.NewTimeGap()} {
		cfg := Config{Graph: g, Heuristic: h}
		seq, err := NewTail(cfg, NoHorizon)
		if err != nil {
			t.Fatal(err)
		}
		want := append(seq.PushBatch(scanned), seq.Flush()...)
		got, st := batchIngest(t, cfg, log)
		name := h.Name()
		if st != seq.Stats() {
			t.Fatalf("%s: stats differ: %+v vs %+v", name, st, seq.Stats())
		}
		ws, gs := sessionStrings(want), sessionStrings(got)
		if len(ws) != len(gs) {
			t.Fatalf("%s: %d sessions vs %d", name, len(gs), len(ws))
		}
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("%s: session %d differs:\nseq: %s\npar: %s", name, i, ws[i], gs[i])
			}
		}
	}
}

func TestShardedTailValidation(t *testing.T) {
	if _, err := NewShardedTail(Config{}, 0, 4); err == nil {
		t.Error("nil graph accepted")
	}
	g, _ := webgraph.PaperFigure1()
	st, err := NewShardedTail(Config{Graph: g}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.shards) != 1 {
		t.Errorf("shard count 0 built %d shards, want 1", len(st.shards))
	}
}
