// Package xrand is a tiny deterministic PRNG (xorshift64*) used to
// generate workload data and structures reproducibly. The substrate never
// uses math/rand so that workload bytes, rule tables, and input corpora
// are identical across runs and platforms.
package xrand

// Rand is a xorshift64* generator. The zero value is invalid; use New.
type Rand struct{ s uint64 }

// New returns a generator seeded with seed (0 is remapped).
func New(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// Mix64 is the splitmix64 finalizer, a bijection on uint64 whose output
// bits each depend on every input bit. It is the one way the repository
// turns structured input — a seed plus an index, a hash of a name — into
// an independent seed or a well-spread position.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Bytes fills a fresh n-byte slice with random bytes.
func (r *Rand) Bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}
