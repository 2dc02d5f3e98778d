package simulator

// source is math/rand's generator — the additive lagged Fibonacci source
// rand.NewSource returns — with its seeding paid per state word instead of
// up front. Seeded alike, it returns the same Int63 and Uint64 sequence as
// rand.NewSource, bit for bit, so a *rand.Rand over it draws exactly what
// one over rand.NewSource draws.
//
// math/rand's Seed builds all 607 words of the feedback register, each from
// three steps of a serial Lehmer generator (x ← 48271·x mod 2³¹−1), before
// the first draw: 1,841 dependent multiplications, which is most of what an
// agent that draws a hundred values costs. Step k from seed s is
// s·48271ᵏ mod 2³¹−1, so word i needs only its own three steps, taken from a
// table of powers. Seed here reduces the seed and starts a new generation; a
// word is built the first time a draw reads it in that generation, and a
// per-word generation stamp tells built from stale, so a re-seed clears
// nothing.
type source struct {
	tap, feed int
	seed      uint64 // the reduced seed, in [1, int32max)
	gen       uint32 // the current seeding; stamp[i] == gen once vec[i] is built
	vec       [rngLen]int64
	stamp     [rngLen]uint32
}

// The generator's shape and the Lehmer generator's constants, as in
// math/rand.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lehmerA  = 48271
)

// lehmerPow[3i+c] is 48271^(21+3i+c) mod 2³¹−1: the Lehmer steps that build
// word i are numbers 21+3i, 22+3i and 23+3i, after twenty discarded steps.
var lehmerPow = func() (pow [3 * rngLen]uint32) {
	x := uint64(1)
	for k := 1; k < 21+len(pow); k++ {
		x = x * lehmerA % int32max
		if k >= 21 {
			pow[k-21] = uint32(x)
		}
	}
	return pow
}()

// newSource returns a source seeded with seed.
func newSource(seed int64) *source {
	s := &source{}
	s.Seed(seed)
	return s
}

// Seed reduces seed as math/rand does — modulo 2³¹−1, negatives wrapped,
// zero replaced — and starts a new generation: every word is stale.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.gen++
	if s.gen == 0 {
		// The stamps would read as current again after 2³² seedings.
		clear(s.stamp[:])
		s.gen = 1
	}
}

// word returns vec[i], building it first if this generation has not.
func (s *source) word(i int) int64 {
	if s.stamp[i] != s.gen {
		s.stamp[i] = s.gen
		pow := lehmerPow[3*i : 3*i+3 : 3*i+3]
		u := int64(s.seed*uint64(pow[0])%int32max) << 40
		u ^= int64(s.seed*uint64(pow[1])%int32max) << 20
		u ^= int64(s.seed * uint64(pow[2]) % int32max)
		s.vec[i] = u ^ rngCooked[i]
	}
	return s.vec[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}
