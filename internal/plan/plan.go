// Package plan is what is left of the execution planner. There is one
// execution shape — a decoder per gzip member ‖ one parser ‖ the tail
// (internal/clf's StreamFilesChunked, internal/core's Tail) — so
// there is nothing to plan, nothing is probed, and no package of this module
// imports plan. The names below stay only because bench/layers.go:409 calls
// them to time its plan.resolve_ms row; the benchmark PR of ROADMAP item 3 (f)
// drops the row and this package with it.
package plan

import "os"

// Input describes a workload: what the decision table used to tell apart.
type Input struct {
	// Cores is the schedulable parallelism; <= 0 means runtime.GOMAXPROCS.
	Cores int
	// SizeBytes is the input's size on disk; < 0 when unknown (a pipe, a
	// missing or irregular file).
	SizeBytes int64
	// Files is how many files make up the input.
	Files int
}

// StatPaths describes a resolved file set.
func StatPaths(paths []string) Input {
	in := Input{Files: len(paths)}
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil || !fi.Mode().IsRegular() {
			in.SizeBytes = -1
			return in
		}
		in.SizeBytes += fi.Size()
	}
	return in
}

// Knob was one execution flag's value: an explicit integer or Auto.
type Knob struct {
	N    int
	Auto bool
}

// Auto is the knob value that left the choice to the planner.
var Auto = Knob{Auto: true}

// SamplePaths returned the first 2 MiB of the set, decoded, for the
// calibration probe. There is no probe: it opens nothing.
func SamplePaths([]string) []byte { return nil }

// Plan is the execution shape Resolve answers with.
type Plan struct {
	// Workers is the number of parser goroutines.
	Workers int
	// Shards is the sessionizer's shard count.
	Shards int
	// ChunkBytes is the line-aligned parse chunk size.
	ChunkBytes int
}

// Resolve returns the one plan, whatever the input, the knobs (workers,
// shards, depth and a fifth that was -batch) and the sample.
func Resolve(Input, Knob, Knob, Knob, Knob, []byte) (Plan, []string) {
	return Plan{Workers: 1, Shards: 1, ChunkBytes: 1 << 20}, nil
}
