package fastrand

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesStdlib replays long raw streams against math/rand's
// default source for a spread of seeds, including the special cases the
// stdlib normalizes (zero, negative, beyond int32max).
func TestSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 77, 89482311, int32max, int32max + 1,
		-int32max, math.MaxInt64, math.MinInt64, 0x1091}
	for s := int64(2); s < 1000; s += 97 {
		seeds = append(seeds, s, -s, s*1e9)
	}
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		got := NewSource(seed)
		for i := 0; i < 2000; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: %d != stdlib %d", seed, i, g, w)
			}
		}
	}
}

// TestReseedMatchesFreshSource checks Seed fully resets the register:
// a reused, advanced source re-seeded to s must continue exactly like a
// fresh one.
func TestReseedMatchesFreshSource(t *testing.T) {
	src := NewSource(1)
	for i := 0; i < 1234; i++ {
		src.Uint64()
	}
	src.Seed(42)
	fresh := NewSource(42)
	for i := 0; i < 2000; i++ {
		if a, b := src.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d after reseed: %d != %d", i, a, b)
		}
	}
}

// TestDerivedDrawsMatchStdlib exercises the rand.Rand adapters the
// simulator actually uses (NormFloat64, Float64, Intn) — these must be
// bit-identical, not merely statistically equivalent, for the study's
// seeded runs to reproduce.
func TestDerivedDrawsMatchStdlib(t *testing.T) {
	for _, seed := range []int64{1, 42, -3, 1 << 40} {
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		for i := 0; i < 5000; i++ {
			switch i % 3 {
			case 0:
				if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
					t.Fatalf("seed %d NormFloat64 %d: %v != %v", seed, i, g, w)
				}
			case 1:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d Float64 %d: %v != %v", seed, i, g, w)
				}
			case 2:
				if w, g := want.Intn(1<<30), got.Intn(1<<30); w != g {
					t.Fatalf("seed %d Intn %d: %v != %v", seed, i, g, w)
				}
			}
		}
	}
}

// countingSource wraps math/rand's default source and records how many
// raw draws were taken and the first one since the last mark, so a test
// can tell which branch of the ziggurat a NormFloat64 call took.
type countingSource struct {
	rand.Source64
	n     int
	first int64
}

func (c *countingSource) Int63() int64 {
	v := c.Source64.Int63()
	if c.n == 0 {
		c.first = v
	}
	c.n++
	return v
}

// TestDirectDrawsMatchStdlib replays Source.NormFloat64 and
// Source.Float64, interleaved, against math/rand over seeds the stdlib
// normalizes specially (zero, negatives, MinInt64, multiples of
// 2^31-1). It also classifies every normal draw from its first raw word
// and asserts that both slow paths of the ziggurat ran: the base-strip
// tail (i == 0) and a wedge rejection (a wedge draw that needed more
// than its two words).
func TestDirectDrawsMatchStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, -42, 42, math.MinInt64, math.MaxInt64,
		int32max, 2 * int32max, -3 * int32max, 1 << 40}
	const perSeed = 100000 // x2 draws x11 seeds > 10^6 interleaved draws
	var tails, wedgeRejects int
	for _, seed := range seeds {
		cs := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
		want := rand.New(cs)
		got := NewSource(seed)
		for i := 0; i < perSeed; i++ {
			cs.n = 0
			w, g := want.NormFloat64(), got.NormFloat64()
			if w != g {
				t.Fatalf("seed %d NormFloat64 %d: %v != stdlib %v", seed, i, g, w)
			}
			j := int32(cs.first >> 31)
			if k := j & 0x7F; absInt32(j) >= kn[k] {
				if k == 0 {
					tails++
				} else if cs.n > 2 {
					wedgeRejects++
				}
			}
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d Float64 %d: %v != stdlib %v", seed, i, g, w)
			}
		}
	}
	t.Logf("%d base-strip tails, %d wedge rejections", tails, wedgeRejects)
	if tails == 0 || wedgeRejects == 0 {
		t.Fatalf("slow paths not exercised: %d base-strip tails, %d wedge rejections", tails, wedgeRejects)
	}
}

// TestWordMatchesLehmerAt checks the chained register word — one pow
// lookup, then two single-fold Lehmer steps — against three independent
// lehmerAt positions, for every register index and a spread of
// normalized seeds.
func TestWordMatchesLehmerAt(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, int32max - 1, int32max + 1, math.MinInt64} {
		s := NewSource(seed)
		for i := 0; i < rngLen; i++ {
			j := 3*i + 21
			u := lehmerAt(j, s.x0) << 40
			u ^= lehmerAt(j+1, s.x0) << 20
			u ^= lehmerAt(j+2, s.x0)
			if want, got := u^cooked[i], s.word(i); got != want {
				t.Fatalf("seed %d word %d: %#x != lehmerAt form %#x", seed, i, got, want)
			}
		}
	}
}

// BenchmarkNormFloat64 measures the direct normal draw the simulator
// and sensor use, reseeding every 64 draws the way the study's short
// runs do, so lazy register fills are part of the cost.
func BenchmarkNormFloat64(b *testing.B) {
	s := NewSource(1)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			s.Seed(int64(i))
		}
		sink += s.NormFloat64()
	}
	if sink == 0 {
		b.Log(sink)
	}
}

// BenchmarkSeed measures the fast path this package exists for.
func BenchmarkSeed(b *testing.B) {
	b.ReportAllocs()
	s := NewSource(1)
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

// BenchmarkSeedStdlib is the stdlib baseline for BenchmarkSeed.
func BenchmarkSeedStdlib(b *testing.B) {
	b.ReportAllocs()
	s := rand.NewSource(1)
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}
