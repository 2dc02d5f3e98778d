package plan

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// onePlan is what Resolve answers with, whatever it is asked.
var onePlan = Plan{Workers: 1, Shards: 1, ChunkBytes: 1 << 20}

// TestDecideTable keeps the decision table's inputs — cores x input size x
// files, the shapes the benchmarks and the deployment paths hit — and holds
// every one of them to the one plan: there is no decision left for an input
// to change. (The row that expected shrunken chunks went with the sizing.)
func TestDecideTable(t *testing.T) {
	const MiB = 1 << 20
	cases := []struct {
		name string
		in   Input
	}{
		{"one core large file", Input{Cores: 1, SizeBytes: 100 * MiB}},
		{"one core pipe", Input{Cores: 1, SizeBytes: -1}},
		{"two cores large file", Input{Cores: 2, SizeBytes: 512 * MiB}},
		{"two cores rotated gzip set", Input{Cores: 2, SizeBytes: 64 * MiB, Files: 4}},
		{"two cores endless pipe", Input{Cores: 2, SizeBytes: -1}},
		{"small file on many cores", Input{Cores: 8, SizeBytes: 1 * MiB}},
		{"large file on many cores", Input{Cores: 8, SizeBytes: 512 * MiB}},
		{"endless pipe on many cores", Input{Cores: 4, SizeBytes: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if p, notes := Resolve(tc.in, Auto, Auto, Auto, Auto, nil); p != onePlan || notes != nil {
				t.Fatalf("Resolve = %+v, %v; want %+v and no notes", p, notes, onePlan)
			}
		})
	}
}

// TestDecideDeterministic: the answer is a pure function — of nothing.
func TestDecideDeterministic(t *testing.T) {
	in := Input{Cores: 16, SizeBytes: 123 << 20}
	a, _ := Resolve(in, Auto, Auto, Auto, Auto, nil)
	b, _ := Resolve(in, Auto, Auto, Auto, Auto, nil)
	if a != b {
		t.Fatalf("Resolve not deterministic: %+v vs %+v", a, b)
	}
}

// TestResolveIgnoresExplicitKnobs: an explicit worker, shard or depth count
// no longer overrides anything, is not clamped and earns no note.
func TestResolveIgnoresExplicitKnobs(t *testing.T) {
	in := Input{Cores: 2, SizeBytes: 256 << 20}
	for _, k := range []Knob{{N: 64}, {N: 0}, {N: -1}} {
		if p, notes := Resolve(in, k, k, k, Auto, nil); p != onePlan || notes != nil {
			t.Fatalf("Resolve with knob %+v = %+v, %v; want %+v and no notes", k, p, notes, onePlan)
		}
	}
}

// TestResolveAutoOneCore: on one core the resolved auto plan is the one plan.
func TestResolveAutoOneCore(t *testing.T) {
	if p, notes := Resolve(Input{Cores: 1, SizeBytes: 100 << 20}, Auto, Auto, Auto, Auto, nil); p != onePlan || notes != nil {
		t.Fatalf("auto on 1 core = %+v, %v; want %+v and no notes", p, notes, onePlan)
	}
}

// TestTwoCoresSkipTheProbe: there is no probe on any core count —
// SamplePaths hands back nothing from a file it could have read, and a
// sample handed to Resolve changes nothing.
func TestTwoCoresSkipTheProbe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, bytes.Repeat([]byte("not a log line\n"), 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	if s := SamplePaths([]string{path}); s != nil {
		t.Fatalf("SamplePaths read %d bytes", len(s))
	}
	in := StatPaths([]string{path})
	if in.Files != 1 || in.SizeBytes != 15*1024 {
		t.Fatalf("StatPaths = %+v", in)
	}
	in.Cores = 2
	if p, notes := Resolve(in, Auto, Auto, Auto, Auto, []byte("not a log line\n")); p != onePlan || notes != nil {
		t.Fatalf("auto on 2 cores with a sample = %+v, %v", p, notes)
	}
}
