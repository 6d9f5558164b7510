// Package randbad draws from the process-global math/rand source in
// simulator-scoped code; every draw must be flagged by globalrand.
package randbad

import "math/rand"

// Jitter draws an unseeded latency perturbation.
func Jitter() float64 {
	return rand.Float64()
}

// Pick chooses an unseeded index.
func Pick(n int) int {
	return rand.Intn(n)
}

// NewRng seeds math/rand's eager source instead of rng.New.
func NewRng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
