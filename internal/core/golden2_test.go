package core

import (
	"bufio"
	"bytes"
	"math/rand"
	"os"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// The second golden corpus: a distribution-scale fixture produced by the
// agent simulator over a generated topology — thousands of records from
// hundreds of interleaved users, shared proxy IPs included. It catches
// distribution-level regressions (shard balance, burst interleaving, intern
// arena behaviour) that the 25-line hand-written corpus cannot. The
// topology, log, and expected outputs are committed; regenerate all of them
// with
//
//	go test ./internal/core -run TestGoldenCorpusSimgen -update
const (
	golden2Seed   = 11
	golden2Agents = 150
)

// regenGolden2 deterministically rebuilds the simgen fixture inputs.
func regenGolden2(t *testing.T) {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 120, AvgOutDegree: 8, StartPageFraction: 0.08,
	}, rand.New(rand.NewSource(golden2Seed)))
	if err != nil {
		t.Fatal(err)
	}
	params := simulator.PaperParams()
	params.Agents = golden2Agents
	params.Seed = golden2Seed + 1
	res, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}

	var topo bytes.Buffer
	bw := bufio.NewWriter(&topo)
	if err := g.Encode(bw); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if err := os.WriteFile(goldenPath("golden2.topology.json"), topo.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	for _, rec := range res.Log(g) {
		log.WriteString(rec.String())
		log.WriteByte('\n')
	}
	if err := os.WriteFile(goldenPath("golden2.log"), log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func golden2Graph(t *testing.T) *webgraph.Graph {
	t.Helper()
	g, err := webgraph.Decode(bytes.NewReader(readGolden(t, "golden2.topology.json")))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGoldenCorpusSimgen pins batch and streaming processing of the simgen
// corpus across the reader × processor sweep, byte for byte.
func TestGoldenCorpusSimgen(t *testing.T) {
	if *update {
		regenGolden2(t)
	}
	g := golden2Graph(t)
	log := readGolden(t, "golden2.log")

	// Batch: a NoHorizon Tail, and batchReference, on the same golden file.
	sessions, batchStats := batchIngest(t, Config{Graph: g}, string(log))
	if batchStats.Malformed != 0 {
		t.Fatalf("simgen corpus has %d malformed lines, want 0", batchStats.Malformed)
	}
	writeOrCompareGolden(t, "golden2.batch.sessions", renderSessions(t, sessions))
	records, bad, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("ReadAll malformed = %d, want 0", bad)
	}
	ref, refStats := batchReference(t, g, nil, records)
	if !bytes.Equal(renderSessions(t, ref), readGolden(t, "golden2.batch.sessions")) {
		t.Error("the reference's sessions differ from golden2.batch.sessions")
	}
	if refStats != batchStats {
		t.Errorf("the reference counts %+v, the NoHorizon Tail %+v", refStats, batchStats)
	}

	// Streaming reference (single Tail, sequential feed) and sweep.
	refTail, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var refStream []session.Session
	for _, rec := range records {
		refStream = append(refStream, refTail.Push(rec)...)
	}
	refStream = append(refStream, refTail.Flush()...)
	writeOrCompareGolden(t, "golden2.stream.sessions", renderSessions(t, refStream))
	wantStream := readGoldenOrGot(t, "golden2.stream.sessions", renderSessions(t, refStream))

	tl, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []session.Session
	malformed, err := tl.Ingest(bytes.NewReader(log), keep(&got), nil)
	if err != nil {
		t.Fatal(err)
	}
	if malformed != 0 {
		t.Fatalf("malformed = %d, want 0", malformed)
	}
	got = append(got, tl.Flush()...)
	if !bytes.Equal(renderSessions(t, got), wantStream) {
		t.Fatal("streamed sessions differ from golden2")
	}

	// The offset-reporting path must emit the identical stream too.
	st, err := NewTail(Config{Graph: g, StreamChunkBytes: 16 << 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	var last clf.FilePos
	if _, err := st.Ingest(bytes.NewReader(log), keep(&got), func(pos clf.FilePos) error { last = pos; return nil }); err != nil {
		t.Fatal(err)
	}
	if want := (clf.FilePos{Offset: int64(len(log))}); last != want {
		t.Fatalf("final position %+v, want %+v", last, want)
	}
	got = append(got, st.Flush()...)
	if !bytes.Equal(renderSessions(t, got), wantStream) {
		t.Fatal("Ingest sessions with progress differ from golden2")
	}
}
