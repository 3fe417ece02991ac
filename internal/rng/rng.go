// Package rng implements the repository's pseudo-random number generation.
//
// The core generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 so that any 64-bit seed yields a well-mixed state. The package
// also provides derived independent streams (one per simulation replication
// or per worker goroutine) and the samplers needed by the simulator:
// uniform, exponential, Erlang, and discrete choices.
//
// We implement our own generator rather than using math/rand so that
// simulation runs are reproducible bit-for-bit across Go releases and
// platforms, and so each parallel replication gets a cheaply derived,
// statistically independent stream.
package rng

import "math"

// bufLen is the number of outputs generated per refill of the batch
// buffer. 256 draws (2 KiB) amortizes the refill loop enough that the
// per-draw cost is one load and one predictable branch, while staying
// small next to the simulator's per-processor state.
const bufLen = 256

// Source is a xoshiro256** generator. The zero value is invalid; use New.
//
// Outputs are produced in batches: the xoshiro core runs bufLen steps at a
// time with its state held in registers, filling buf, and Uint64 hands out
// buffered values until the next refill. The output sequence is exactly the
// sequence the unbatched core would produce — batching changes when state
// advances, never what is drawn — so fixed-seed results are unaffected.
type Source struct {
	s   [4]uint64
	i   int // next unread index into buf; == bufLen forces a refill
	buf [bufLen]uint64
}

// splitmix64 advances *x and returns the next SplitMix64 output. It is used
// only for seeding.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds
// yield well-separated states even for small seed values (0, 1, 2, ...).
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed re-initializes r in place to the exact state New(seed) would
// produce, so long-lived workers can restart a stream without allocating a
// fresh Source.
func (r *Source) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// All-zero state is the one invalid state for xoshiro; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	// Discard any buffered outputs from the previous seed.
	r.i = bufLen
}

// DeriveSeed returns the seed of the independent stream i derived from
// seed. New(DeriveSeed(seed, i)), or Reseed on a recycled Source, is the
// supported way to give each replication or worker its own stream.
func DeriveSeed(seed uint64, i int) uint64 {
	x := seed ^ 0xd1342543de82ef95
	_ = splitmix64(&x)
	mix := splitmix64(&x) + uint64(i)*0x9e3779b97f4a7c15
	return splitmix64(&mix) ^ seed
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// refill runs the xoshiro core bufLen times with the state in locals
// (registers, not four loads and four stores per draw) and stores the
// outputs in buf.
func (r *Source) refill() {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range r.buf {
		r.buf[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	r.i = 0
}

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	if r.i == bufLen {
		r.refill()
	}
	v := r.buf[r.i]
	r.i++
	return v
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1), never exactly 0. This is
// the right input for inversion sampling of the exponential distribution.
func (r *Source) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded sampling keeps this cheap.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Bounded is a precomputed uniform sampler over [0, n): the Lemire
// rejection threshold (-n)%n — the one division in Intn — is paid once at
// construction instead of on every draw. Intn accepts a draw when
// lo >= bound || lo >= (-bound)%bound; the first disjunct is implied by the
// second (the threshold is < bound), so Next's single comparison accepts
// exactly the same draws and consumes exactly as many Uint64 values —
// replacing Intn(n) with a Bounded leaves every fixed-seed stream
// byte-identical. The victim-sampling tables in the simulator hold one
// Bounded per population size.
type Bounded struct {
	bound  uint64
	thresh uint64
}

// NewBounded returns a sampler for [0, n). It panics if n <= 0.
func NewBounded(n int) Bounded {
	if n <= 0 {
		panic("rng: NewBounded with n <= 0")
	}
	b := uint64(n)
	return Bounded{bound: b, thresh: (-b) % b}
}

// Next returns a uniform integer in [0, n), drawing from r.
func (b Bounded) Next(r *Source) int {
	for {
		v := r.Uint64()
		hi, lo := mul64(v, b.bound)
		if lo >= b.thresh {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate), via inversion. It panics if rate <= 0. It is exactly
// Exp1()/rate: the same draws, the same bits.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with rate <= 0")
	}
	return r.Exp1() / rate
}

// Exp1 returns a unit-rate exponential value, −log U for U from
// Float64Open. A caller whose rate is 1 skips Exp's division: IEEE 754
// gives x/1 == x exactly, so the result is bit-identical to Exp(1).
func (r *Source) Exp1() float64 {
	return -math.Log(r.Float64Open())
}

// Erlang returns the sum of k independent exponentials each with the given
// rate, i.e. an Erlang(k, rate) sample with mean k/rate.
func (r *Source) Erlang(k int, rate float64) float64 {
	if k <= 0 {
		panic("rng: Erlang with k <= 0")
	}
	// Product-of-uniforms form: one log instead of k.
	p := 1.0
	for i := 0; i < k; i++ {
		p *= r.Float64Open()
	}
	return -math.Log(p) / rate
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool { return r.Float64() < p }
