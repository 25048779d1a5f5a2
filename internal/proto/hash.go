package proto

// SplitMix64 is the standard 64-bit finalizer of the splitmix64
// generator: a bijection with good avalanche behavior, used to derive
// independent-looking values from structured inputs.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SeedHash hashes (seed, a, b) through a SplitMix64 chain. It is how
// the protocols draw shared randomness without any random state: every
// node that knows the seed and the two values computes the same bits,
// so a coin or a sample costs no communication (the public-coins
// assumption). b enters shifted left by 32, so it should fit in 32 bits.
func SeedHash(seed int64, a, b uint64) uint64 {
	h := SplitMix64(uint64(seed))
	h = SplitMix64(h ^ a)
	return SplitMix64(h ^ b<<32)
}
