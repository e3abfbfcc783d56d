// Package xrand provides a tiny deterministic xorshift64* PRNG used
// everywhere the simulator needs randomness (FPC probabilistic confidence
// counters, workload data generation). Using our own generator — rather
// than math/rand — pins the exact sequence across Go versions so every
// experiment is bit-reproducible.
package xrand

// Rand is a xorshift64* generator. The zero value is not valid; use New.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed (a zero seed is remapped to a
// fixed non-zero constant, since xorshift requires non-zero state).
func New(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// OneIn returns true with probability 1/n. This is the primitive behind
// the paper's Forward Probabilistic Counters (1/16 increment probability).
func (r *Rand) OneIn(n int) bool {
	if n <= 1 {
		return true
	}
	return r.Intn(n) == 0
}
