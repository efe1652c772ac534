// Package fastrand provides a drop-in replacement for math/rand's
// default source that produces bit-identical output streams but seeds
// roughly an order of magnitude faster.
//
// The study's determinism contract derives a fresh seed for every run
// from the run's identity, so the full grid re-seeds its generators
// hundreds of thousands of times; profiling showed the stdlib's
// rngSource.Seed — a serial chain of ~1,880 Lehmer steps filling a
// 607-word lagged-Fibonacci register — was the single largest consumer
// of the study's CPU time. This package removes the serial dependency:
// the i-th register word needs the Lehmer stream at fixed positions
// 3i+21, 3i+22, 3i+23, and x_j = 48271^j * x_0 mod (2^31-1), so all 607
// words are computed from precomputed multiplier powers as independent
// multiply-mods.
//
// The stdlib XORs each word with an unexported "cooked" constant table.
// Rather than copying that table, init recovers it from math/rand
// itself: the additive generator's first 667 outputs form a solvable
// system for the seeded register, and XOR-ing out the computable Lehmer
// part leaves the constants. The recovery — and the generator's exact
// equivalence — is locked down by tests that replay math/rand streams.
package fastrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMax   = 1 << 63
	rngMask  = rngMax - 1
	int32max = (1 << 31) - 1

	lehmerA = 48271 // the Lehmer multiplier of the stdlib's seed chain
)

// pow[j] is lehmerA^(j+1) mod int32max: the multiplier taking the
// normalized seed to Lehmer position j+1. Seeding needs positions 1
// through 3*rngLen+20+3.
var pow [3*rngLen + 23]uint64

// cooked mirrors math/rand's unexported rngCooked table, recovered from
// the stdlib at init (see recoverCooked).
var cooked [rngLen]int64

func init() {
	x := uint64(1)
	for j := range pow {
		x = x * lehmerA % int32max
		pow[j] = x
	}
	recoverCooked()
}

// lehmerAt returns the seed chain value at position j >= 1 for the
// normalized seed x0: 48271^j * x0 mod (2^31-1).
func lehmerAt(j int, x0 uint64) int64 {
	return int64(mulmod31(pow[j-1], x0))
}

// mulmod31 computes a*b mod (2^31-1) for a, b < 2^31 by Mersenne-prime
// folding: the product is < 2^62, two shift-add folds bring it under
// 2^31+1, and one conditional subtract finishes the reduction. This
// avoids the hardware divide a % would cost in the seeding loop.
func mulmod31(a, b uint64) uint64 {
	v := a * b
	v = (v >> 31) + (v & int32max)
	v = (v >> 31) + (v & int32max)
	if v >= int32max {
		v -= int32max
	}
	return v
}

// recoverCooked reconstructs the stdlib's cooked table. Seeding with s
// sets vec[i] = u_i(s) ^ cooked[i], where u_i is the computable Lehmer
// part, and the additive generator's output stream reveals the seeded
// register: writes walk cells 333..0 then wrap to 606..334, taps walk
// 606..273 then 272..0, so
//
//	out_k = vec[333-k] + vec[606-k]      k =   0..272 (both unwritten)
//	out_k = vec[333-k] + out_{k-273}     k = 273..333 (tap was written)
//	out_k = vec[940-k] + out_{k-273}     k = 334..606 (feed wraps high)
//
// which back-substitutes into the full register, high words first. The
// cooked table then follows by XOR-ing out the Lehmer part for s = 1.
func recoverCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	var vec [rngLen]int64
	for c := 334; c <= 606; c++ {
		vec[c] = out[940-c] - out[667-c]
	}
	for c := 61; c <= 333; c++ {
		vec[c] = out[333-c] - vec[c+273]
	}
	for c := 0; c <= 60; c++ {
		vec[c] = out[333-c] - out[60-c]
	}
	for i := range cooked {
		j := 3*i + 21
		u := lehmerAt(j, 1) << 40
		u ^= lehmerAt(j+1, 1) << 20
		u ^= lehmerAt(j+2, 1)
		cooked[i] = vec[i] ^ u
	}
}

// Source is a re-seedable generator emitting exactly math/rand's default
// source stream. It implements rand.Source64, so rand.New(NewSource(s))
// behaves identically to rand.New(rand.NewSource(s)) for every derived
// draw (Float64, NormFloat64, Intn, ...). Not safe for concurrent use.
//
// Seeding is lazy: Seed only records the normalized Lehmer seed, and each
// of the first rngLen-rngTap outputs fills exactly the register words it
// is about to consume. The generator's access pattern makes this exact:
// output k reads the seeded words at positions rngLen-rngTap-1-k (the
// feed) and, for k < rngTap, rngLen-1-k (the tap); every later read hits
// a word the stream already wrote or filled. A run that consumes only a
// few dozen draws — the common case for the study's short segments —
// therefore computes a few dozen seeded words instead of all 607.
type Source struct {
	tap, feed int
	// raw counts outputs since Seed, saturating at rngLen-rngTap: while
	// raw is below the cap the next output must fill its seeded words.
	raw int
	x0  uint64
	vec [rngLen]int64
}

// NewSource returns a Source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
// The register fills lazily as outputs are drawn, so Seed itself is O(1).
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.raw = 0
}

// word computes seeded register word i: the three Lehmer positions packed
// into 63 bits, XOR the stdlib's cooked constant. Only the first
// position needs the pow table; the next two are one Lehmer step each,
// and a step's product x*48271 < 2^47 reduces with a single fold.
func (s *Source) word(i int) int64 {
	x := mulmod31(pow[3*i+20], s.x0)
	y := lehmerStep(x)
	z := lehmerStep(y)
	return int64(x<<40^y<<20^z) ^ cooked[i]
}

// lehmerStep advances the seed chain one position: x*48271 mod (2^31-1)
// for x < 2^31-1. The product is under 2^47, so one shift-add fold
// brings it below 2^31+2^16 and one conditional subtract finishes.
func lehmerStep(x uint64) uint64 {
	v := x * lehmerA
	v = (v >> 31) + (v & int32max)
	if v >= int32max {
		v -= int32max
	}
	return v
}

// Uint64 advances the lagged-Fibonacci register one step.
func (s *Source) Uint64() uint64 {
	if k := s.raw; k < rngLen-rngTap {
		// Output k is the first reader of feed word rngLen-rngTap-1-k and
		// (while the tap still points at unwritten cells) of tap word
		// rngLen-1-k; fill them now. High words stay valid for their
		// second read after the feed wraps — fills write the same value
		// eager seeding would have.
		s.vec[rngLen-rngTap-1-k] = s.word(rngLen - rngTap - 1 - k)
		if k < rngTap {
			s.vec[rngLen-1-k] = s.word(rngLen - 1 - k)
		}
		s.raw = k + 1
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the low 63 bits of the next step.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Float64 returns a draw in [0, 1), bit-identical to rand.Rand.Float64
// over the same stream (including its resample of the rare 1.0).
func (s *Source) Float64() float64 {
	for {
		f := float64(s.Int63()) / (1 << 63)
		if f < 1 {
			return f
		}
	}
}

// New returns a rand.Rand over a fast source, equivalent to
// rand.New(rand.NewSource(seed)); its Seed method hits the fast path.
func New(seed int64) *rand.Rand {
	return rand.New(NewSource(seed))
}
