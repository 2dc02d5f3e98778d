package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// stageAll stages recs as ingestion's parser goroutine does, for tests that
// feed pushBatchTo directly.
func stageAll(tl *Tail, recs []clf.Record) []pageView {
	views := make([]pageView, len(recs))
	for i := range recs {
		views[i] = tl.cfg.stage(&recs[i])
	}
	return views
}

// openCap is the capacity of every open burst's slot array, summed.
func openCap(tl *Tail) (n int) {
	for _, b := range tl.buffers {
		n += cap(b.slots)
	}
	return n
}

// TestBurstArraysDoNotRatchet: after every chunk of a simulator log, the open
// bursts' entry arrays hold at most twice their entries plus one starting
// array per user — what appending from burstCap leaves. A closed burst's
// array recycled at whatever capacity it grew to would go to the next new
// burst, so a three-request burst could hold a long one's 512 slots.
func TestBurstArraysDoNotRatchet(t *testing.T) {
	g, err := webgraph.GenerateTopology(webgraph.PaperTopology(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Half a day of the paper's agents: enough generations of closed bursts
	// for recycled arrays to have grown, a few hundred users open at a time.
	params := simulator.PaperParams()
	params.Agents = 4000
	params.StartWindow = 12 * time.Hour
	sim, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if err := clf.WriteAll(&log, sim.Log(g)); err != nil {
		t.Fatal(err)
	}
	tl, err := NewTail(Config{Graph: g, StreamChunkBytes: 16 << 10, Heuristic: heuristics.NewTimeGap()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks, peak := 0, 0
	progress := func(clf.FilePos) error {
		chunks++
		held, bound := openCap(tl), 2*tl.Buffered()+burstCap*tl.ActiveUsers()
		if held > bound {
			return fmt.Errorf("chunk %d: open bursts hold %d entries in %d slots, over 2×entries + %d×%d users = %d",
				chunks, tl.Buffered(), held, burstCap, tl.ActiveUsers(), bound)
		}
		peak = max(peak, tl.Buffered())
		return nil
	}
	if _, err := tl.Ingest(&log, DiscardSessions, progress); err != nil {
		t.Fatal(err)
	}
	if chunks < 100 || peak < 100*burstCap {
		t.Fatalf("%d chunks, at most %d entries open: the log exercises nothing", chunks, peak)
	}
}

// droppedLinesLog is a Combined log over g in which users send pages, 404s,
// stylesheets, POSTs and URIs no page has, with malformed lines in between,
// and pause past ρ now and then. kinds[i] says what record i (malformed lines
// are not records) is; gaps[k] is how many records precede the k-th
// malformed line.
func droppedLinesLog(g *webgraph.Graph, lines int) (text string, kinds []string, gaps []int64) {
	rng := rand.New(rand.NewSource(33))
	at := time.Date(2006, 1, 2, 8, 0, 0, 0, time.UTC)
	var b strings.Builder
	for i := 0; i < lines; i++ {
		at = at.Add(time.Duration(rng.Intn(40)) * time.Second)
		if rng.Intn(80) == 0 {
			at = at.Add(session.DefaultPageStay + time.Minute)
		}
		kind := []string{"page", "page", "page", "404", "css", "post", "unresolved", "malformed"}[rng.Intn(8)]
		method, uri, status := "GET", g.Label(webgraph.PageID(rng.Intn(g.NumPages()))), 200
		switch kind {
		case "malformed":
			gaps = append(gaps, int64(len(kinds)))
			b.WriteString("not a log line\n")
			continue
		case "404":
			status = 404
		case "css":
			uri = "/style.css"
		case "post":
			method = "POST"
		case "unresolved":
			uri = "/nowhere.html"
		}
		user := rng.Intn(9)
		fmt.Fprintf(&b, "10.0.0.%d - - [%s] \"%s %s HTTP/1.1\" %d 100 \"-\" \"agent-%d\"\n",
			user, at.Format(clf.TimeLayout), method, uri, status, user%4)
		kinds = append(kinds, kind)
	}
	return b.String(), kinds, gaps
}

// pushLoop is the reference every ingestion here is held to: records pushed
// one at a time, Expire(At) at each cut's record count, then Flush.
func pushLoop(t *testing.T, cfg Config, records []clf.Record, cuts []ExpiryCut) ([]byte, Stats) {
	t.Helper()
	ref, err := NewTail(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []session.Session
	ci := 0
	for i, rec := range records {
		for ci < len(cuts) && cuts[ci].Records <= int64(i) {
			want = append(want, ref.Expire(cuts[ci].At)...)
			ci++
		}
		want = append(want, ref.Push(rec)...)
	}
	for ; ci < len(cuts); ci++ {
		want = append(want, ref.Expire(cuts[ci].At)...)
	}
	want = append(want, ref.Flush()...)
	return renderSessions(t, want), ref.Stats()
}

// TestCutsOnDroppedLines: a filtered or unresolved record keeps its slot in
// the parse ring, so cuts placed on either side of every such record and at
// every malformed line replay exactly as a Push loop with Expire at the same
// counts, with the same stats, for any chunk size.
func TestCutsOnDroppedLines(t *testing.T) {
	g := goldenGraph()
	text, kinds, gaps := droppedLinesLog(g, 1500)
	records, bad, err := clf.ReadAll(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(kinds) || bad != len(gaps) {
		t.Fatalf("read %d records, %d malformed; wrote %d and %d", len(records), bad, len(kinds), len(gaps))
	}
	leads := []time.Duration{session.DefaultPageStay / 2, session.DefaultPageStay + time.Minute, 2 * session.DefaultPageStay}
	var cuts []ExpiryCut
	cut := func(n int64) {
		at := records[max(n-1, 0)].Time.Add(leads[len(cuts)%len(leads)])
		cuts = append(cuts, ExpiryCut{Seq: int64(len(cuts) + 1), Records: n, At: at})
	}
	dropped := map[string]bool{"404": true, "css": true, "post": true, "unresolved": true}
	seen := map[string]int{}
	for i, gi := 0, 0; i <= len(records); i++ {
		for ; gi < len(gaps) && gaps[gi] == int64(i); gi++ {
			cut(int64(i)) // at the malformed line, before record i
			seen["malformed"]++
		}
		if i < len(records) && dropped[kinds[i]] {
			cut(int64(i))     // just before the dropped record
			cut(int64(i + 1)) // and just after it
			seen[kinds[i]]++
		}
	}
	for _, k := range []string{"404", "css", "post", "unresolved", "malformed"} {
		if seen[k] < 20 {
			t.Fatalf("only %d cuts at %s lines", seen[k], k)
		}
	}
	want, wantStats := pushLoop(t, Config{Graph: g}, records, cuts)
	if wantStats.Filtered == 0 || wantStats.Unresolved == 0 || wantStats.Sessions == 0 {
		t.Fatalf("reference run dropped or built nothing: %+v", wantStats)
	}
	wantStats.Malformed = len(gaps) // ingestion counts the lines it skips; a Push loop never sees them

	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{0, 512, 8192} {
		st, err := NewTail(Config{Graph: g, StreamChunkBytes: chunk}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []session.Session
		malformed, err := st.IngestFilesCuts([]string{path}, clf.FilePos{}, 0, cuts, keep(&got), nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, st.Flush()...)
		if malformed != len(gaps) {
			t.Errorf("chunk=%d: malformed = %d, want %d", chunk, malformed, len(gaps))
		}
		if !bytes.Equal(renderSessions(t, got), want) {
			t.Errorf("chunk=%d: cut replay differs from the Push loop", chunk)
		}
		if st.Stats() != wantStats {
			t.Errorf("chunk=%d: stats %+v, want %+v", chunk, st.Stats(), wantStats)
		}
	}
}

// TestLentPageViewsArePoisoned: the page-view slices ingestion is lent are
// overwritten with pageView.Lent's sentinel once returned, as record slices
// are, so a feeder that kept one compares garbage.
func TestLentPageViewsArePoisoned(t *testing.T) {
	g := goldenGraph()
	text, _, _ := droppedLinesLog(g, 600)
	tl, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]pageView
	if _, err := clf.StreamStaged(strings.NewReader(text), clf.StreamConfig{ChunkBytes: 2048}, tl.cfg.stage,
		func(views []pageView) { kept = append(kept, views) }, nil); err != nil {
		t.Fatal(err)
	}
	if len(kept) < 4 {
		t.Fatalf("only %d chunks", len(kept))
	}
	for _, views := range kept {
		for _, v := range views {
			if v != (pageView{user: "\x00lent"}) {
				t.Fatalf("a lent slice still holds %+v", v)
			}
		}
	}
}
