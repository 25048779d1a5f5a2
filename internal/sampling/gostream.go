package sampling

import "math/rand"

// Constants of math/rand's Go 1 source (an additive lagged Fibonacci
// generator seeded from a Lehmer sequence), from src/math/rand/rng.go.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedSkip is how many Lehmer steps seeding discards before it
	// fills the first register word.
	seedSkip = 20
)

// lehmerPow[j] = 48271^j mod (2^31-1): seeding's j-th Lehmer state is
// x0·lehmerPow[j] for the reduced seed x0, so any register word can be
// rebuilt from three table lookups without stepping the sequence.
var lehmerPow = func() (t [seedSkip + 3*rngLen + 1]uint64) {
	t[0] = 1
	for j := 1; j < len(t); j++ {
		t[j] = t[j-1] * 48271 % int32max
	}
	return t
}()

// goStream yields the values of rand.New(rand.NewSource(seed)) without
// building math/rand's 607-word register. Seeding sets word i to three
// consecutive Lehmer states XORed with rngCooked[i], and output k (for
// k < rngTap) is word 333-k plus word 606-k, neither of which any
// earlier output has overwritten. So each of the first rngTap outputs
// is a closed form in the seed: six modular multiplies, no allocation.
// Past that, outputs read words the generator has rewritten, and the
// stream falls back to a real math/rand source advanced past the
// values already drawn.
type goStream struct {
	seed int64       // as passed to rand.NewSource, for the fallback
	x0   uint64      // seed reduced as rngSource.Seed does, in [1, 2^31-1)
	k    int         // outputs drawn so far
	src  rand.Source // fallback once k reaches rngTap
}

func newGoStream(seed int64) goStream {
	x0 := seed % int32max
	if x0 < 0 {
		x0 += int32max
	}
	if x0 == 0 {
		x0 = 89482311
	}
	return goStream{seed: seed, x0: uint64(x0)}
}

// word returns register word i as rngSource.Seed leaves it.
func (s *goStream) word(i int) int64 {
	j := seedSkip + 1 + 3*i
	x1 := s.x0 * lehmerPow[j] % int32max
	x2 := s.x0 * lehmerPow[j+1] % int32max
	x3 := s.x0 * lehmerPow[j+2] % int32max
	return int64(x1<<40^x2<<20^x3) ^ rngCooked[i]
}

// int63 is the stream's next rand.Source.Int63 value.
func (s *goStream) int63() int64 {
	if s.k < rngTap {
		v := s.word(rngLen-rngTap-1-s.k) + s.word(rngLen-1-s.k)
		s.k++
		return v & rngMask
	}
	if s.src == nil {
		s.src = rand.NewSource(s.seed)
		for i := 0; i < s.k; i++ {
			s.src.Int63()
		}
	}
	return s.src.Int63()
}

// Float64 is the stream's next rand.Rand.Float64 value, retrying on a
// quotient that rounds up to 1 exactly as math/rand does.
func (s *goStream) Float64() float64 {
	for {
		if f := float64(s.int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}
