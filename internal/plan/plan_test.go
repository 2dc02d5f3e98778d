package plan

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestDecideTable pins the planner's decision table: cores x input-size x
// kind -> chosen plan. These are the shapes the committed benchmarks and the
// deployment paths actually hit.
func TestDecideTable(t *testing.T) {
	const MiB = 1 << 20
	cases := []struct {
		name string
		in   Input
		want func(t *testing.T, p Plan)
	}{
		{
			// The committed 1-core bench inversion: sequential must win.
			name: "one core large file",
			in:   Input{Cores: 1, SizeBytes: 100 * MiB, Kind: KindFile},
			want: func(t *testing.T, p Plan) {
				if !p.Sequential || p.Workers != 1 || p.Shards != 1 {
					t.Fatalf("want sequential single-shard plan, got %+v", p)
				}
			},
		},
		{
			name: "one core pipe",
			in:   Input{Cores: 1, SizeBytes: -1, Kind: KindPipe},
			want: func(t *testing.T, p Plan) {
				if !p.Sequential {
					t.Fatalf("want sequential, got %+v", p)
				}
			},
		},
		{
			// Parser and tail already hold both cores: a pool is no faster
			// and holds more memory.
			name: "two cores large file",
			in:   Input{Cores: 2, SizeBytes: 512 * MiB, Kind: KindFile},
			want: func(t *testing.T, p Plan) {
				if !p.Sequential || p.Workers != 1 || p.Shards != 1 {
					t.Fatalf("want the sequential plan, got %+v", p)
				}
				if !strings.Contains(p.Reason, "2 cores") {
					t.Fatalf("reason does not name the cores: %q", p.Reason)
				}
			},
		},
		{
			name: "two cores rotated gzip set",
			in:   Input{Cores: 2, SizeBytes: 64 * MiB, Kind: KindGzip, Files: 4},
			want: func(t *testing.T, p Plan) {
				if !p.Sequential || p.Workers != 1 {
					t.Fatalf("want the sequential plan, got %+v", p)
				}
			},
		},
		{
			name: "two cores endless pipe",
			in:   Input{Cores: 2, SizeBytes: -1, Kind: KindPipe},
			want: func(t *testing.T, p Plan) {
				if !p.Sequential {
					t.Fatalf("want the sequential plan, got %+v", p)
				}
			},
		},
		{
			name: "small file on many cores",
			in:   Input{Cores: 8, SizeBytes: 1 * MiB, Kind: KindFile},
			want: func(t *testing.T, p Plan) {
				if !p.Sequential {
					t.Fatalf("1 MiB input should stay sequential, got %+v", p)
				}
			},
		},
		{
			name: "large file on many cores",
			in:   Input{Cores: 8, SizeBytes: 512 * MiB, Kind: KindFile},
			want: func(t *testing.T, p Plan) {
				if p.Sequential || p.Workers != 8 {
					t.Fatalf("want 8 parallel workers, got %+v", p)
				}
				if p.ChunkBytes != DefaultChunkBytes {
					t.Fatalf("large input should keep the default chunk, got %d", p.ChunkBytes)
				}
				if p.StreamDepth < 8 || p.StreamDepth > 32 {
					t.Fatalf("depth %d outside [8,32]", p.StreamDepth)
				}
				if p.Shards != 1 {
					t.Fatalf("single-feeder ingest wants 1 shard, got %d", p.Shards)
				}
			},
		},
		{
			// Medium inputs shrink chunks so every worker has several.
			name: "medium file shrinks chunks",
			in:   Input{Cores: 4, SizeBytes: 6 * MiB, Kind: KindFile},
			want: func(t *testing.T, p Plan) {
				if p.Sequential {
					t.Fatalf("6 MiB on 4 cores should parallelize, got %+v", p)
				}
				if p.ChunkBytes >= DefaultChunkBytes || p.ChunkBytes < MinChunkBytes {
					t.Fatalf("chunk %d not shrunk into [%d,%d)", p.ChunkBytes, MinChunkBytes, DefaultChunkBytes)
				}
				if p.Workers > 4 {
					t.Fatalf("workers %d > cores", p.Workers)
				}
			},
		},
		{
			name: "endless pipe on many cores",
			in:   Input{Cores: 4, SizeBytes: -1, Kind: KindPipe},
			want: func(t *testing.T, p Plan) {
				if p.Sequential || p.Workers != 4 {
					t.Fatalf("unbounded pipe on 4 cores should use all of them, got %+v", p)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Decide(tc.in)
			tc.want(t, p)
			if p.Workers < 1 || p.Shards < 1 || p.StreamDepth < 1 || p.ChunkBytes < 1 {
				t.Fatalf("degenerate plan %+v", p)
			}
			if p.Reason == "" {
				t.Fatalf("plan has no reason: %+v", p)
			}
		})
	}
}

// TestDecideDeterministic: the uncalibrated planner is a pure function.
func TestDecideDeterministic(t *testing.T) {
	in := Input{Cores: 16, SizeBytes: 123 << 20, Kind: KindFile}
	a, b := Decide(in), Decide(in)
	if a != b {
		t.Fatalf("Decide not deterministic: %+v vs %+v", a, b)
	}
}

func TestClampWorkers(t *testing.T) {
	cases := []struct {
		req  int
		in   Input
		want int
		clam bool
	}{
		{64, Input{Cores: 4, SizeBytes: 1 << 30, Kind: KindFile}, 4, true},
		{4, Input{Cores: 4, SizeBytes: 1 << 30, Kind: KindFile}, 4, false},
		// A half-MiB input has one chunk: extra workers never receive work.
		{8, Input{Cores: 16, SizeBytes: 512 << 10, Kind: KindFile}, 1, true},
		{3, Input{Cores: 8, SizeBytes: -1, Kind: KindPipe}, 3, false},
		{0, Input{Cores: 8, SizeBytes: -1, Kind: KindPipe}, 1, false},
	}
	for _, tc := range cases {
		got, clamped := ClampWorkers(tc.req, tc.in)
		if got != tc.want || clamped != tc.clam {
			t.Errorf("ClampWorkers(%d, %+v) = (%d, %v), want (%d, %v)",
				tc.req, tc.in, got, clamped, tc.want, tc.clam)
		}
	}
}

func TestClampShards(t *testing.T) {
	if got, clamped := ClampShards(64, Input{Cores: 4}); got != 8 || !clamped {
		t.Errorf("ClampShards(64, 4 cores) = (%d, %v), want (8, true)", got, clamped)
	}
	if got, clamped := ClampShards(8, Input{Cores: 1}); got != 2 || !clamped {
		t.Errorf("ClampShards(8, 1 core) = (%d, %v), want (2, true)", got, clamped)
	}
	if got, clamped := ClampShards(3, Input{Cores: 4}); got != 3 || clamped {
		t.Errorf("ClampShards(3, 4 cores) = (%d, %v), want (3, false)", got, clamped)
	}
}

func TestParseKnob(t *testing.T) {
	for _, s := range []string{"auto", ""} {
		k, err := ParseKnob("workers", s)
		if err != nil || !k.Auto {
			t.Fatalf("ParseKnob(%q) = %+v, %v; want auto", s, k, err)
		}
	}
	k, err := ParseKnob("workers", "-1")
	if err != nil || k.Auto || k.N != -1 {
		t.Fatalf("ParseKnob(-1) = %+v, %v", k, err)
	}
	if _, err := ParseKnob("workers", "many"); err == nil {
		t.Fatal("ParseKnob(many) should fail")
	}
}

// TestResolveExplicitOverrides: explicit knobs beat the planner but are
// clamped, and every clamp is reported.
func TestResolveExplicitOverrides(t *testing.T) {
	in := Input{Cores: 2, SizeBytes: 256 << 20, Kind: KindFile}
	p, notes := Resolve(in, Knob{N: 64}, Knob{N: 64}, Knob{N: 4}, Auto, nil)
	if p.Workers != 2 {
		t.Fatalf("workers = %d, want clamped 2 (plan %+v)", p.Workers, p)
	}
	if p.Shards != 4 {
		t.Fatalf("shards = %d, want clamped 4 (2x cores)", p.Shards)
	}
	if p.StreamDepth != 4 {
		t.Fatalf("depth = %d, want explicit 4", p.StreamDepth)
	}
	if len(notes) != 2 {
		t.Fatalf("notes = %v, want one per clamp", notes)
	}
	for _, n := range notes {
		if !strings.Contains(n, "clamped") {
			t.Fatalf("note %q does not mention the clamp", n)
		}
	}

	// Legacy conventions: workers 0 sequential, -1 all cores, shards 0 all cores.
	p, _ = Resolve(in, Knob{N: 0}, Knob{N: 0}, Auto, Auto, nil)
	if !p.Sequential || p.Workers != 1 {
		t.Fatalf("workers 0 should mean sequential, got %+v", p)
	}
	if p.Shards != 2 {
		t.Fatalf("shards 0 should mean all cores (2), got %d", p.Shards)
	}
	p, _ = Resolve(in, Knob{N: -1}, Auto, Auto, Auto, nil)
	if p.Sequential || p.Workers != 2 {
		t.Fatalf("workers -1 should mean all cores, got %+v", p)
	}
}

// TestResolveAutoOneCore: the headline fix — on one core the resolved auto
// plan is sequential, so parse/stream/tail speedups are 1.0 by construction.
func TestResolveAutoOneCore(t *testing.T) {
	p, notes := Resolve(Input{Cores: 1, SizeBytes: 100 << 20, Kind: KindFile}, Auto, Auto, Auto, Auto, nil)
	if !p.Sequential || p.Workers != 1 || p.Shards != 1 {
		t.Fatalf("auto on 1 core = %+v, want sequential", p)
	}
	if len(notes) != 0 {
		t.Fatalf("auto plan should not clamp anything: %v", notes)
	}
}

// TestTwoCoresSkipTheProbe: with the table already sequential there is
// nothing to calibrate — the auto plan is Decide's, sample or no sample, so
// it cannot flip from run to run — and an explicit -workers still overrides.
func TestTwoCoresSkipTheProbe(t *testing.T) {
	in := Input{Cores: 2, SizeBytes: 80 << 20, Kind: KindFile}
	sample := bytes.Repeat([]byte("not a log line\n"), MaxProbeBytes/15)
	p, notes := Resolve(in, Auto, Auto, Auto, Auto, sample)
	if p != Decide(in) || strings.Contains(p.Reason, "probe") || len(notes) != 0 {
		t.Fatalf("auto on 2 cores = %+v (notes %v), want the table's plan unprobed", p, notes)
	}
	if p, _ = Resolve(in, Knob{N: 2}, Auto, Auto, Auto, sample); p.Sequential || p.Workers != 2 {
		t.Fatalf("-workers 2 on 2 cores = %+v, want the pool", p)
	}
}

// TestPlanString: a plan's line names the goroutines it runs, only a pool
// plan prints the pool's depth, and a pipe's plan reads like a file's — the
// delivery granularity is the source's, not a knob to print.
func TestPlanString(t *testing.T) {
	seq := Decide(Input{Cores: 2, SizeBytes: 80 << 20, Kind: KindFile}).String()
	if !strings.Contains(seq, "parser ‖ tail") || !strings.Contains(seq, "decoder") || strings.Contains(seq, "depth=") {
		t.Errorf("sequential plan reads %q", seq)
	}
	pipe := Decide(Input{Cores: 2, SizeBytes: -1, Kind: KindPipe}).String()
	if !strings.Contains(pipe, "parser ‖ tail") || strings.Contains(pipe, "batch=") || strings.Contains(seq, "batch=") {
		t.Errorf("pipe plan reads %q, file plan %q", pipe, seq)
	}
	par := Decide(Input{Cores: 8, SizeBytes: 512 << 20, Kind: KindFile}).String()
	if !strings.Contains(par, "8 workers") || !strings.Contains(par, "depth=16") {
		t.Errorf("parallel plan reads %q", par)
	}
}

// TestCalibrate: the probe returns a positive finite ratio on real CLF
// input, and DecideCalibrated never yields an invalid plan whichever way
// the probe lands on this machine.
func TestCalibrate(t *testing.T) {
	var sample bytes.Buffer
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for i := 0; sample.Len() < minProbeBytes; i++ {
		fmt.Fprintf(&sample, "10.0.%d.%d - - [%s] \"GET /p%d HTTP/1.0\" 200 %d\n",
			i%256, (i/256)%256, base.Add(time.Duration(i)*time.Second).Format("02/Jan/2006:15:04:05 -0700"),
			i%300, 1000+i%4096)
	}
	p := Plan{Workers: 4, StreamDepth: 8, ChunkBytes: DefaultChunkBytes}
	ratio := Calibrate(sample.Bytes(), p)
	if ratio <= 0 {
		t.Fatalf("Calibrate ratio = %v, want > 0", ratio)
	}

	got := DecideCalibrated(Input{Cores: 4, SizeBytes: 1 << 30, Kind: KindFile}, sample.Bytes())
	if got.Workers < 1 || got.StreamDepth < 1 || got.ChunkBytes < 1 {
		t.Fatalf("DecideCalibrated returned degenerate plan %+v", got)
	}
	if got.Sequential && got.Workers != 1 {
		t.Fatalf("sequential plan with %d workers", got.Workers)
	}
	// A short sample must leave the table's decision standing.
	table := Decide(Input{Cores: 4, SizeBytes: 1 << 30, Kind: KindFile})
	short := DecideCalibrated(Input{Cores: 4, SizeBytes: 1 << 30, Kind: KindFile}, sample.Bytes()[:1024])
	if short != table {
		t.Fatalf("short sample changed the plan: %+v vs %+v", short, table)
	}
}
