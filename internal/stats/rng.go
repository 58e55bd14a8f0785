// Package stats provides the random-number and probability substrate used
// throughout the library: a fast deterministic PRNG, the noise
// distributions of the UIC model, and simple summary statistics for
// Monte-Carlo estimators.
package stats

import "math"

// RNG is a seedable xoshiro256++ pseudo-random generator. It is not safe
// for concurrent use; estimators that shard work across goroutines derive
// one RNG per shard with Split.
type RNG struct {
	s [4]uint64
	// cached second output of the polar Gaussian method
	gauss    float64
	hasGauss bool
}

// splitmix64 advances the seed-expansion state and returns the next value.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given value. Distinct seeds
// give independent-looking streams; the same seed always yields the same
// stream.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets r to the stream NewRNG(seed) starts, in place — a hot loop
// that reseeds per unit of work allocates nothing.
func (r *RNG) Seed(seed uint64) {
	*r = RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Zero reports whether r is in the all-zero xoshiro state, which returns
// 0 forever (Intn then spins in its rejection loop for any n that is not
// a power of two). Seed never produces it; an RNG value that was never
// seeded is in it.
func (r *RNG) Zero() bool { return r.s == [4]uint64{} }

// Split returns a new RNG seeded from the current stream, suitable for
// handing to another goroutine.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	v := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, v)
	if lo < v {
		thresh := -v % v
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mul64(x, v)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo = a * b
	hi = a1*b1 + t>>32 + (t&mask32+a0*b1)>>32
	return
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method with one cached spare value.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Perm returns a random permutation of [0, n).
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

// Shuffle randomly permutes the first n elements using the given swap
// function, matching the contract of rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Mix returns output i of the splitmix64 sequence seeded at base —
// random access into it, so parallel work can give its i-th unit an
// independent stream, NewRNG(Mix(base, i)), whichever goroutine runs it.
func Mix(base, i uint64) uint64 {
	x := base + i*0x9e3779b97f4a7c15
	return splitmix64(&x)
}
