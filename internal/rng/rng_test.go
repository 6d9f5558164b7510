package rng

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds cover math/rand's seed reduction: zero and every multiple
// of the modulus map to the stand-in seed, negatives wrap, and the
// int64 extremes exercise the remainder's sign.
var edgeSeeds = []int64{
	0, 1, -1, 2, 7, 42, -42,
	modulus - 1, modulus, modulus + 1, -modulus, 2 * modulus, -3 * modulus,
	zeroSeed, -zeroSeed,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	math.MaxInt32, math.MinInt32,
}

// drawsPastRing crosses both boundaries: draw 273, the last pristine
// tap word, and draw 607, the last pristine feed word, several times
// over.
const drawsPastRing = 2500

// mixedDraw takes draw n from r, alternating Int63 and Uint64 in an
// irregular pattern so a mismatch between the two paths shows.
func mixedDraw(r *rand.Rand, n int) uint64 {
	if n%3 == 1 || n%7 == 0 {
		return uint64(r.Int63())
	}
	return r.Uint64()
}

func TestConstants(t *testing.T) {
	if got := mulMod(48271, invMult); got != 1 {
		t.Errorf("48271·invMult mod modulus = %d, want 1", got)
	}
	pow := int64(1)
	for k := 1; k <= 1841; k++ {
		pow = mulMod(pow, 48271)
		switch k {
		case 1022:
			if pow != mult1022 {
				t.Errorf("48271^1022 = %d, mult1022 = %d", pow, mult1022)
			}
		case 1841:
			if pow != mult1841 {
				t.Errorf("48271^1841 = %d, mult1841 = %d", pow, mult1841)
			}
		}
	}
}

func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		for n := 0; n < drawsPastRing; n++ {
			w, g := mixedDraw(want, n), mixedDraw(got, n)
			if w != g {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, n+1, g, w)
			}
		}
	}
}

func TestReseedMidStream(t *testing.T) {
	// Reseed before, at and after the tap and feed boundaries, and
	// from the ring back to a fresh stream.
	for _, at := range []int{0, 1, 100, 273, 274, 607, 608, 1500} {
		want := rand.New(rand.NewSource(3))
		got := New(3)
		for n := 0; n < at; n++ {
			mixedDraw(want, n)
			mixedDraw(got, n)
		}
		for _, seed := range []int64{3, 99, 0, math.MinInt64} {
			want.Seed(seed)
			got.Seed(seed)
			for n := 0; n < drawsPastRing; n++ {
				w, g := mixedDraw(want, n), mixedDraw(got, n)
				if w != g {
					t.Fatalf("reseed to %d after %d draws, draw %d: got %#x, want %#x", seed, at, n+1, g, w)
				}
			}
		}
	}
}

// TestDistributionMethodsMatch drives the rand.Rand methods the
// simulator calls; each consumes a different number of source draws
// per value (ziggurat rejections, Intn's retry loop), so the streams
// only stay aligned if every underlying draw matches.
func TestDistributionMethodsMatch(t *testing.T) {
	for _, seed := range []int64{1, 7, -5, 1 << 40} {
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		for n := 0; n < drawsPastRing; n++ {
			var w, g float64
			switch n % 5 {
			case 0:
				w, g = want.Float64(), got.Float64()
			case 1:
				w, g = want.NormFloat64(), got.NormFloat64()
			case 2:
				w, g = want.ExpFloat64(), got.ExpFloat64()
			case 3:
				w, g = float64(want.Intn(1000)), float64(got.Intn(1000))
			case 4:
				w, g = float64(want.Intn(3<<30)), float64(got.Intn(3<<30))
			}
			if w != g {
				t.Fatalf("seed %d value %d (method %d): got %v, want %v", seed, n, n%5, g, w)
			}
		}
	}
}

// TestBufferCappedAtRegister checks the output buffer never outgrows
// the register it becomes.
func TestBufferCappedAtRegister(t *testing.T) {
	s := &source{}
	s.Seed(1)
	for n := 0; n < drawsPastRing; n++ {
		s.Uint64()
		if cap(s.vec) > regLen {
			t.Fatalf("after %d draws the buffer has cap %d, want ≤ %d", n+1, cap(s.vec), regLen)
		}
	}
	if cap(s.vec) != regLen {
		t.Fatalf("ring cap %d, want %d", cap(s.vec), regLen)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(drawsPastRing))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		want := rand.New(rand.NewSource(seed))
		got := New(seed)
		for n := 0; n < int(draws); n++ {
			w, g := mixedDraw(want, n), mixedDraw(got, n)
			if w != g {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, n+1, g, w)
			}
		}
	})
}

var sinkFloat float64

// BenchmarkNewSource is the per-account pattern: build a generator and
// take one normal sample from it.
func BenchmarkNewSource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFloat = New(int64(i)).NormFloat64()
	}
}

// BenchmarkNewSourceMathRand is BenchmarkNewSource over
// rand.NewSource's eagerly filled register.
func BenchmarkNewSourceMathRand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkFloat = rand.New(rand.NewSource(int64(i))).NormFloat64()
	}
}

var sinkInt int64

// BenchmarkSourceDraw measures one draw once the register is a ring.
func BenchmarkSourceDraw(b *testing.B) {
	benchDraws(b, New(1))
}

// BenchmarkSourceDrawMathRand is BenchmarkSourceDraw over
// rand.NewSource.
func BenchmarkSourceDrawMathRand(b *testing.B) {
	benchDraws(b, rand.New(rand.NewSource(1)))
}

func benchDraws(b *testing.B, r *rand.Rand) {
	for n := 0; n < 2*regLen; n++ {
		r.Int63()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt = r.Int63()
	}
}
