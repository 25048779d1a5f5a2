package sampling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleWeightDeterministic(t *testing.T) {
	f := func(seed int64, uv int64, rawLevel uint8, rawW uint16) bool {
		level := int(rawLevel % 10)
		w := int64(rawW)
		a := SampleWeight(seed, uv, level, w)
		b := SampleWeight(seed, uv, level, w)
		return a == b && a >= 0 && a <= w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWeightLevelZeroIdentity(t *testing.T) {
	for _, w := range []int64{0, 1, 7, 1000} {
		if got := SampleWeight(1, 2, 0, w); got != w {
			t.Fatalf("level 0 sample of %d = %d", w, got)
		}
	}
	if SampleWeight(1, 2, 3, -5) != 0 {
		t.Fatal("negative weight must sample to 0")
	}
}

// TestSampleWeightMean: the empirical mean over many edges must
// concentrate near w·2^-level.
func TestSampleWeightMean(t *testing.T) {
	const (
		w     = 64
		level = 2 // p = 1/4
		edges = 4000
	)
	var total int64
	for i := 0; i < edges; i++ {
		total += SampleWeight(42, int64(i)<<31|int64(i+1), level, w)
	}
	mean := float64(total) / edges
	want := float64(w) * math.Ldexp(1, -level)
	if math.Abs(mean-want) > 0.5 {
		t.Fatalf("empirical mean %.3f, want %.1f +- 0.5", mean, want)
	}
}

// TestSampleWeightVariance: the variance must match Binomial(w,p)
// within a loose band (distinguishes true binomial sampling from, say,
// deterministic rounding).
func TestSampleWeightVariance(t *testing.T) {
	const (
		w     = 32
		level = 1 // p = 1/2
		edges = 4000
	)
	var sum, sumsq float64
	for i := 0; i < edges; i++ {
		x := float64(SampleWeight(7, int64(i)<<31|int64(2*i+3), level, w))
		sum += x
		sumsq += x * x
	}
	mean := sum / edges
	variance := sumsq/edges - mean*mean
	want := float64(w) * 0.5 * 0.5 // w·p·(1-p)
	if variance < want*0.7 || variance > want*1.3 {
		t.Fatalf("variance %.2f outside [%.2f, %.2f]", variance, want*0.7, want*1.3)
	}
}

func TestSampleWeightDiffersAcrossEdgesAndLevels(t *testing.T) {
	// Not all edges may sample identically (sanity against a broken
	// seed derivation).
	distinct := map[int64]bool{}
	for i := 0; i < 50; i++ {
		distinct[SampleWeight(3, int64(i)<<31|int64(i+100), 1, 40)] = true
	}
	if len(distinct) < 5 {
		t.Fatalf("only %d distinct samples across 50 edges", len(distinct))
	}
	a := SampleWeight(3, 5<<31|9, 1, 40)
	b := SampleWeight(3, 5<<31|9, 2, 40)
	c := SampleWeight(4, 5<<31|9, 1, 40)
	if a == b && b == c {
		t.Fatal("samples identical across levels and seeds")
	}
}

func TestKappaMonotonicity(t *testing.T) {
	if Kappa(0.25, 100) <= Kappa(0.5, 100) {
		t.Fatal("smaller epsilon must need larger kappa")
	}
	if Kappa(0.5, 10000) <= Kappa(0.5, 10) {
		t.Fatal("kappa must grow with n")
	}
	if Kappa(-1, 100) != Kappa(0.5, 100) {
		t.Fatal("invalid epsilon must fall back to 0.5")
	}
}

// referenceSampleWeight is SampleWeight on a real rand.Rand reseeded
// per draw, with the same float64 overflow guard. SampleWeight must
// agree with it on every input.
func referenceSampleWeight(seed int64, uv int64, level int, w int64) int64 {
	if level <= 0 || w <= 0 {
		if w < 0 {
			return 0
		}
		return w
	}
	p := math.Ldexp(1, -level)
	rng := rand.New(rand.NewSource(edgeSeed(seed, uv, level)))
	logq := math.Log1p(-p)
	var successes, pos int64
	for {
		skip := math.Floor(math.Log1p(-rng.Float64()) / logq)
		if !(skip < 1<<63) || int64(skip) >= w-pos {
			return successes
		}
		pos += int64(skip) + 1
		successes++
	}
}

// streamSeeds are the raw-stream test seeds: the edges of math/rand's
// seed reduction (multiples of 2^31-1, which it replaces by 89482311,
// negatives, the int64 extremes) followed by random seeds of both signs.
func streamSeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 2, int32max, -int32max, 2 * int32max, -3 * int32max,
		int32max - 1, int32max + 1, 89482311, 1 << 62 / int32max * int32max,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	r := rand.New(rand.NewSource(11))
	for len(seeds) < n {
		s := r.Int63()
		if r.Intn(2) == 0 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestGoStreamMatchesMathRand pins the closed-form stream, and with it
// the copied rngCooked table, against the installed math/rand: 700
// draws per seed cross the rngTap boundary into the fallback.
func TestGoStreamMatchesMathRand(t *testing.T) {
	const draws = 700
	for _, seed := range streamSeeds(1200) {
		want := rand.New(rand.NewSource(seed))
		got := newGoStream(seed)
		for k := 0; k < draws; k++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, k, g, w)
			}
		}
		src := rand.NewSource(seed)
		raw := newGoStream(seed)
		for k := 0; k < draws; k++ {
			if g, w := raw.int63(), src.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, k, g, w)
			}
		}
		// The closed form reads only words 61..606; words 0..60 first
		// feed output 273+j as word 60-j plus output j (which overwrote
		// word 333-j), so check them too and pin the whole table.
		u := rand.NewSource(seed).(rand.Source64)
		out := make([]uint64, rngLen-rngTap)
		for k := range out {
			out[k] = u.Uint64()
		}
		for i := 0; i < rngLen-2*rngTap; i++ {
			if g, w := raw.word(i), int64(out[rngLen-rngTap-1-i]-out[rngLen-2*rngTap-1-i]); g != w {
				t.Fatalf("seed %d word %d: %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// TestSampleWeightMatchesReference draws 100k random tuples, covering
// negative seeds, level <= 0, w <= 0, overflow-range levels and edges
// heavy enough to exhaust the closed form and take the fallback.
func TestSampleWeightMatchesReference(t *testing.T) {
	const tuples = 100_000
	r := rand.New(rand.NewSource(5))
	var trivial, fallback, negSeed int
	for i := 0; i < tuples; i++ {
		seed, uv := r.Int63(), r.Int63()
		if r.Intn(2) == 0 {
			seed = -seed
			negSeed++
		}
		level := r.Intn(75) - 3
		var w int64
		switch r.Intn(16) {
		case 0, 1:
			w = int64(r.Intn(12)) - 4
		case 2, 3:
			// Heavier edges at levels deep enough to keep draws few.
			level = 10 + r.Intn(62)
			w = int64(r.Intn(1 << 20))
		case 4:
			// Heavy at a low level: rngTap or more successes on average,
			// so draws run past the closed form into the fallback.
			level = 1 + r.Intn(2)
			w = int64(rngTap<<level) + int64(r.Intn(2048))
		default:
			w = 1 + int64(r.Intn(64))
		}
		got, want := SampleWeight(seed, uv, level, w), referenceSampleWeight(seed, uv, level, w)
		if got != want {
			t.Fatalf("SampleWeight(%d, %d, %d, %d) = %d, reference %d", seed, uv, level, w, got, want)
		}
		if level <= 0 || w <= 0 {
			trivial++
		}
		if got >= rngTap {
			fallback++
		}
	}
	if trivial == 0 || fallback == 0 || negSeed == 0 {
		t.Fatalf("coverage: %d trivial, %d fallback, %d negative-seed tuples", trivial, fallback, negSeed)
	}
}

// TestSampleWeightDeepLevelsInRange: at levels near 60 the geometric
// skip exceeds the int64 range, and a skip converted before the range
// check wraps the position negative and counts successes past w.
func TestSampleWeightDeepLevelsInRange(t *testing.T) {
	for level := 58; level <= 70; level++ {
		for _, w := range []int64{1, 2, 3, 1 << 20, math.MaxInt64 / 2} {
			for i := int64(0); i < 4000; i++ {
				if got := SampleWeight(i, i<<32|(i+1), level, w); got < 0 || got > w {
					t.Fatalf("level %d seed %d: SampleWeight(w=%d) = %d", level, i, w, got)
				}
			}
		}
	}
}

var sinkWeight int64

// BenchmarkSampleWeight draws bracket-tier sized samples: light edges
// across the first sixteen levels. It must report 0 allocs/op.
func BenchmarkSampleWeight(b *testing.B) {
	b.ReportAllocs()
	var sum int64
	for i := 0; b.Loop(); i++ {
		sum += SampleWeight(1, int64(i)<<32|int64(i+1), 1+i%16, 1+int64(i%4))
	}
	sinkWeight = sum
}
