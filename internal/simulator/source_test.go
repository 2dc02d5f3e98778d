package simulator

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// sourceDraws is enough draws per seed for feed and tap to go round the
// 607-word register twice: every word is built from its rngCooked entry on a
// first read, then read again after it was rewritten.
const sourceDraws = 1300

// sameDraws draws from got and from a fresh math/rand source seeded with
// seed through every *rand.Rand method the simulator uses, plus the raw
// source words, and fails at the first difference.
func sameDraws(t *testing.T, got *rand.Rand, seed int64) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < sourceDraws; i++ {
		var g, w any
		switch i % 7 {
		case 0:
			g, w = got.Intn(1+i), want.Intn(1+i)
		case 1:
			g, w = got.Int63n(int64(i)*1e9+7), want.Int63n(int64(i)*1e9+7)
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 4:
			g, w = got.ExpFloat64(), want.ExpFloat64()
		case 5:
			g, w = got.Uint64(), want.Uint64()
		case 6:
			g, w = got.Int63(), want.Int63()
		}
		if g != w {
			t.Fatalf("seed %d, draw %d: got %v, math/rand gives %v", seed, i, g, w)
		}
	}
}

// The lazily seeded source is math/rand's generator: for every seed, and
// after any number of re-seedings, a *rand.Rand over it draws what one over
// rand.NewSource draws.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, -1, 1, 89482311, -89482311,
		int32max, -int32max, int32max - 1, -int32max + 1, int32max + 1,
		2 * int32max, -2 * int32max, 12345 * int32max, -98765 * int32max,
		math.MaxInt64 / int32max * int32max,
		1 << 62, -1 << 62, math.MaxInt64, math.MinInt64,
	}
	for i := int64(-3); i < 40; i++ {
		seeds = append(seeds, mixSeed(1, i), mixSeed(2, i), mixSeed(-7, 1_000_000+i))
	}
	t.Run("fresh", func(t *testing.T) {
		for _, seed := range seeds {
			sameDraws(t, rand.New(newSource(seed)), seed)
		}
	})
	t.Run("reseeded", func(t *testing.T) {
		// One source for every seed, re-seeded through *rand.Rand as
		// eachAgent does, after a full or a short run of draws.
		rng := rand.New(newSource(0))
		for k, seed := range seeds {
			rng.Seed(seed)
			if k%3 == 2 {
				rng.Int63() // a stale draw position must not survive Seed
				rng.Seed(seed)
			}
			sameDraws(t, rng, seed)
		}
	})
	t.Run("generation wrap", func(t *testing.T) {
		// Words a few draws read carry stamp 1; the rest still carry the
		// zero value. A wrapped counter must read neither as current.
		src := newSource(seeds[5])
		rng := rand.New(src)
		for range 10 {
			rng.Int63()
		}
		src.gen = math.MaxUint32
		for _, seed := range seeds[:4] {
			rng.Seed(seed) // the first Seed wraps the counter
			sameDraws(t, rng, seed)
		}
		if src.gen != 4 {
			t.Fatalf("generation %d after the wrap, want 4", src.gen)
		}
	})
}

// An agent draws a few hundred values; re-seeding for it costs per draw, and
// neither seeding nor drawing allocates.
func TestSourceSeedDoesNotAllocate(t *testing.T) {
	rng := rand.New(newSource(0))
	if n := testing.AllocsPerRun(100, func() {
		rng.Seed(mixSeed(1, 3))
		rng.Float64()
	}); n != 0 {
		t.Errorf("Seed + draw allocates %v times", n)
	}
}

// BenchmarkAgentSeed times what eachAgent pays for an agent's generator: one
// Seed and a typical agent's hundred draws, on the lazily seeded source and
// on math/rand's.
func BenchmarkAgentSeed(b *testing.B) {
	for _, c := range []struct {
		name string
		rng  *rand.Rand
	}{
		{"lazy", rand.New(newSource(0))},
		{"math-rand", rand.New(rand.NewSource(0))},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sum float64
			for i := 0; i < b.N; i++ {
				c.rng.Seed(mixSeed(1, int64(i)))
				for range 100 {
					sum += c.rng.Float64()
				}
			}
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}

// CrawlerRecords re-seeds one generator per bot; its records are the ones a
// fresh math/rand source per bot gives.
func TestCrawlerRecordsMatchMathRand(t *testing.T) {
	g := testTopology(t)
	start := time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)
	for _, seed := range []int64{1, 2, -5} {
		got := CrawlerRecords(g, 40, seed, start)
		want := crawlerRecords(g, 40, seed, start, rand.New(rand.NewSource(0)))
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d records, math/rand gives %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d, record %d: %+v, math/rand gives %+v", seed, i, got[i], want[i])
			}
		}
	}
}
