// Package randgood draws randomness only from an injected seeded
// *rand.Rand; the globalrand analyzer must stay silent.
package randgood

import (
	"math/rand"

	"repro/internal/rng"
)

// NewRng builds the seeded generator a simulator injects.
func NewRng(seed int64) *rand.Rand {
	return rng.New(seed)
}

// Jitter draws from the injected generator.
func Jitter(rng *rand.Rand) float64 {
	return rng.Float64()
}

// Pick chooses an index reproducibly.
func Pick(rng *rand.Rand, n int) int {
	return rng.Intn(n)
}
