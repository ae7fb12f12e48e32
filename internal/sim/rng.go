package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). The kernel carries its own
// implementation rather than math/rand so that experiment trajectories are
// reproducible byte-for-byte regardless of Go release, and so every model
// component can own an independent stream derived from a scenario seed —
// the same discipline OMNeT++ enforces with per-module RNG streams.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances *x and returns the next output. It is used both for
// seeding and for deriving independent substreams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Distinct seeds give
// statistically independent streams.
func NewRNG(seed uint64) *RNG {
	r := SeedRNG(seed)
	return &r
}

// SeedRNG is NewRNG by value, for generators that live inside another
// object or in a slab instead of one allocation each.
func SeedRNG(seed uint64) RNG {
	var r RNG
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Derive returns a new independent stream keyed by (r's seed material,
// label). It does not disturb r's own sequence position; callers use it at
// setup time to hand each model component its own stream.
func (r *RNG) Derive(label uint64) *RNG {
	d := r.DeriveValue(label)
	return &d
}

// DeriveValue is Derive by value (see SeedRNG).
func (r *RNG) DeriveValue(label uint64) RNG {
	x := r.s[0] ^ (r.s[2] << 1) ^ label*0x2545f4914f6cdd1d
	return SeedRNG(splitmix64(&x))
}

// State returns the generator's current position as its raw xoshiro256**
// state words, for checkpointing. SetState restores it exactly, so a
// restored stream continues the identical sequence.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's position with a previously
// exported State. The all-zero state is invalid for xoshiro and panics.
func (r *RNG) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		panic("sim: restoring all-zero RNG state")
	}
	r.s = s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift with rejection for exact uniformity.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// ExpDuration returns an exponentially distributed duration with the
// given mean, useful for Poisson traffic models.
func (r *RNG) ExpDuration(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return Duration(-float64(mean) * math.Log(u))
}
