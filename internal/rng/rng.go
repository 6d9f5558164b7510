// Package rng builds the simulator's seeded generators. New(seed)
// draws exactly the stream rand.New(rand.NewSource(seed)) draws, bit
// for bit, but does not fill math/rand's 607-word feedback register up
// front: each register word is computed the first time a draw reads
// it. A fleet account seeds several generators and typically draws a
// handful of values from each, so the eager fill (1,841 serial LCG
// steps and a 4.8 KB register per generator) was most of the cost of
// installing one.
//
// How it works. math/rand's Seed sets register word i to
//
//	x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ rngCooked[i]
//
// where x(k) = s·48271^k mod (2³¹−1) and s is the reduced seed, so any
// word follows from one multiplication by a constant power and two
// steps backwards with 48271's inverse. Draw n (counting from 1) adds
// a feed word and a tap word and writes the sum over the feed word.
// The feed word is pristine until draw 607 and the tap word until
// draw 273; after that each is an earlier output (draw n−607 and draw
// n−273). The source therefore walks two backward LCG cursors over the
// pristine words in draw order, keeps the outputs in a buffer that
// grows by doubling up to 607 words, and from draw 608 on runs that
// buffer as math/rand's ring.
package rng

import "math/rand"

const (
	regLen = 607 // math/rand's feedback register length
	regTap = 273 // distance from the feed word back to the tap word

	modulus  = 1<<31 - 1  // the seeding LCG's modulus, a Mersenne prime
	invMult  = 1899818559 // 48271⁻¹ mod modulus
	mult1022 = 1079773482 // 48271^1022 mod modulus: x(1022) ends word 333, the first feed word
	mult1841 = 2140244399 // 48271^1841 mod modulus: x(1841) ends word 606, the first tap word
	zeroSeed = 89482311   // math/rand's stand-in for a seed ≡ 0 mod modulus

	minBuf = 8 // inline output buffer capacity; most generators never outgrow it
)

// New returns a generator whose draws equal those of
// rand.New(rand.NewSource(seed)) for every method and seed, including
// after a later Seed call.
func New(seed int64) *rand.Rand {
	s := &source{}
	s.Seed(seed)
	return rand.New(s)
}

// source is a rand.Source64 producing rand.NewSource's stream with a
// lazily computed register.
type source struct {
	seed int64 // reduced seed s in [1, modulus)

	// vec holds draws 1..len(vec) while len(vec) < regLen, starting in
	// first so a short-lived generator costs no second allocation. Once
	// full it becomes ring, the feedback register, read at feed and tap.
	vec       []int64
	first     [minBuf]int64
	ring      *[regLen]int64
	feed, tap int

	// feedX and tapX are x(23+3i) for the next pristine feed and tap
	// words i; each word consumed steps its cursor back three places.
	feedX, tapX int64
}

// Seed resets the source to rand.NewSource(seed)'s initial state. It
// keeps the output buffer for reuse.
func (r *source) Seed(seed int64) {
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroSeed
	}
	r.seed = seed
	if r.vec == nil {
		r.vec = r.first[:0]
	}
	r.vec = r.vec[:0]
	r.ring = nil
	r.feedX = mulMod(seed, mult1022)
	r.tapX = mulMod(seed, mult1841)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *source) Int63() int64 {
	if r.ring == nil {
		return int64(r.warm() &^ (1 << 63))
	}
	return int64(r.step() &^ (1 << 63))
}

// Uint64 returns a pseudo-random 64-bit value.
func (r *source) Uint64() uint64 {
	if r.ring == nil {
		return r.warm()
	}
	return r.step()
}

// step makes a draw once the register is a full ring. Int63 and
// Uint64 each inline it, so the draw costs one call through rand.Rand
// as math/rand's does.
func (r *source) step() uint64 {
	feed, tap := r.feed, r.tap
	x := r.ring[feed] + r.ring[tap]
	r.ring[feed] = x
	if feed++; feed == regLen {
		feed = 0
	}
	if tap++; tap == regLen {
		tap = 0
	}
	r.feed, r.tap = feed, tap
	return uint64(x)
}

// warm makes draw k+1, k = len(r.vec) < regLen, which still reads a
// pristine feed word and, while k < regTap, a pristine tap word.
func (r *source) warm() uint64 {
	k := len(r.vec)

	// Feed words run 333 down to 0, then 606 down to 334.
	i := regLen - regTap - 1 - k
	if i < 0 {
		i += regLen
	}
	var feed int64
	feed, r.feedX = word(r.feedX, i)
	if i == 0 {
		r.feedX = mulMod(r.seed, mult1841)
	}

	// Tap words run 606 down to 334, then are earlier outputs.
	var tap int64
	if k < regTap {
		tap, r.tapX = word(r.tapX, regLen-1-k)
	} else {
		tap = r.vec[k-regTap]
	}

	x := feed + tap
	if k == cap(r.vec) {
		grown := make([]int64, k, min(2*k, regLen))
		copy(grown, r.vec)
		r.vec = grown
	}
	r.vec = append(r.vec, x)
	if k+1 == regLen {
		// Draw 608 reads draw 1 as its feed word and draw 335 as its tap.
		r.feed, r.tap = 0, regLen-regTap
		r.ring = (*[regLen]int64)(r.vec)
	}
	return uint64(x)
}

// word returns pristine register word i given c = x(23+3i), and the
// cursor x(20+3i) for word i−1.
func word(c int64, i int) (w, next int64) {
	w = c
	c = mulMod(c, invMult)
	w ^= c << 20
	c = mulMod(c, invMult)
	w ^= c << 40
	return w ^ rngCooked[i], mulMod(c, invMult)
}

// mulMod returns a·b mod modulus for a, b in [1, modulus), reducing by
// the Mersenne identity 2³¹ ≡ 1 instead of dividing. The result stays
// in [1, modulus) because modulus is prime.
func mulMod(a, b int64) int64 {
	p := uint64(a) * uint64(b)
	x := p&modulus + p>>31
	if x >= modulus {
		x -= modulus
	}
	return int64(x)
}
