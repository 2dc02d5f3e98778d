package plan

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"smartsra/internal/clf"
)

const (
	// MaxProbeBytes is how much input the calibration probe reads: enough
	// lines that both paths leave their start-up regime, small enough that
	// the probe finishes in a few milliseconds.
	MaxProbeBytes = 2 << 20
	// minProbeBytes is the smallest sample worth timing; below it the
	// probe's verdict is scheduler noise and the uncalibrated decision
	// table stands.
	minProbeBytes = 256 << 10
	// CalibrateMargin is how decisively the parallel path must win the
	// probe before the planner commits to it. The margin absorbs probe
	// noise and boundary machines: near 1.0 the parallel path buys
	// nothing, so sequential — whose speedup is 1.0 by construction — is
	// the safe pick.
	CalibrateMargin = 1.25
	probeRuns       = 3
)

// DecideCalibrated is Decide backed by an observed-throughput probe: when
// the decision table picks the pool and a large-enough sample of the actual
// input is available, the two plans the run could take are both timed on the
// sample — the sequential plan it would fall back to (clf.StreamChunked at
// Workers 1: a parser goroutine beside the emitting one) and the pool
// (Workers p.Workers behind a reader goroutine), cutting the same chunks —
// and the plan falls back to sequential unless the pool wins by
// CalibrateMargin. A nil or short sample leaves the table's decision
// standing.
func DecideCalibrated(in Input, sample []byte) Plan {
	p := Decide(in)
	if p.Sequential || len(sample) < minProbeBytes {
		return p
	}
	ratio := Calibrate(sample, p)
	if ratio < CalibrateMargin {
		return p.sequentialFallback(fmt.Sprintf(
			"probe: parallel parse %.2fx sequential (< %.2fx needed)", ratio, CalibrateMargin))
	}
	p.Reason += fmt.Sprintf("; probe %.2fx", ratio)
	return p
}

// Calibrate times the sequential plan against p's worker pool on sample and
// returns the parallel:sequential throughput ratio (> 1 means parallel is
// faster). Chunks are shrunk, on both sides alike, so the sample exercises
// every worker; each path takes the best of a few runs to damp scheduler
// noise.
func Calibrate(sample []byte, p Plan) float64 {
	chunk := len(sample) / (4 * p.Workers)
	if chunk < 8<<10 {
		chunk = 8 << 10
	}
	run := func(workers int) time.Duration {
		cfg := clf.StreamConfig{Workers: workers, Depth: p.StreamDepth, ChunkBytes: chunk}
		return bestOf(probeRuns, func() {
			clf.StreamChunked(bytes.NewReader(sample), cfg, func([]clf.Record) {}, nil)
		})
	}
	seq, par := run(1), run(p.Workers)
	if par <= 0 {
		return 1
	}
	return float64(seq) / float64(par)
}

// Sample reads the calibration sample from the start of a regular file
// without moving its read offset (ReadAt); nil for anything non-seekable
// (probing a pipe could stall behind a slow producer).
func Sample(f *os.File) []byte {
	if f == nil {
		return nil
	}
	if fi, err := f.Stat(); err != nil || !fi.Mode().IsRegular() {
		return nil
	}
	buf := make([]byte, MaxProbeBytes)
	n, _ := f.ReadAt(buf, 0)
	if n <= 0 {
		return nil
	}
	return buf[:n]
}

// SamplePath is Sample for a file that is not open yet, decoding gzip so
// the probe times parsing actual log lines, not compressed garbage.
func SamplePath(path string) []byte {
	return SamplePaths([]string{path})
}

// SamplePaths reads the calibration sample from the first file of a
// resolved input set, gzip-decoded when needed.
func SamplePaths(paths []string) []byte {
	if len(paths) == 0 {
		return nil
	}
	rc, err := clf.OpenDecoded(paths[0])
	if err != nil {
		return nil
	}
	defer rc.Close()
	buf := make([]byte, MaxProbeBytes)
	n, _ := io.ReadFull(rc, buf)
	if n <= 0 {
		return nil
	}
	return buf[:n]
}

func bestOf(runs int, op func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < runs; i++ {
		start := time.Now()
		op()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
