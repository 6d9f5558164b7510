package workload

import (
	"math"

	"repro/internal/rng"
)

// This file partitions the workload generators across a fleet: account
// index → an independent, replay-stable PRNG stream family, plus the
// per-account application profile (which DIY app the account runs, at
// what rate) drawn from a seeded distribution. The derivation is
// splitmix64-style — a bijective avalanche finalizer — so neighbouring
// account indices land in statistically unrelated stream roots and two
// accounts only share a stream if they share a root seed on purpose.

// splitmix64 is the splitmix64 output finalizer: a bijection on uint64
// with full avalanche, the standard cheap way to turn a counter into an
// independent-looking seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// streamTag hashes a substream name (FNV-1a) so named substreams of one
// account ("arrivals", "netsim", "profile", ...) are mutually
// independent.
func streamTag(name string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	return h
}

// AccountSeed derives the root seed of account index's PRNG stream
// partition from the fleet's base seed. Distinct (base, index) pairs
// map to distinct roots (splitmix64 is bijective per base), and the
// mapping is pure — replaying a fleet re-derives identical streams
// regardless of account evaluation order.
func AccountSeed(base int64, index int) int64 {
	return int64(splitmix64(uint64(base) + splitmix64(uint64(index)+1)))
}

// Substream derives the seed of one named substream under a root seed,
// so an account can draw its arrival process, its latency model, and
// its profile from independent streams of the same partition.
func Substream(root int64, name string) int64 {
	return int64(splitmix64(uint64(root) ^ streamTag(name)))
}

// AppKind identifies which DIY application an account runs (§6.1's
// suite: chat, email, file drop, IoT controller).
type AppKind int

const (
	KindChat AppKind = iota
	KindEmail
	KindFiledrop
	KindIoT
	// NumKinds bounds the enum for array-indexed aggregation.
	NumKinds
)

// String names the kind for rendered output.
func (k AppKind) String() string {
	switch k {
	case KindChat:
		return "chat"
	case KindEmail:
		return "email"
	case KindFiledrop:
		return "filedrop"
	case KindIoT:
		return "iot"
	}
	return "unknown"
}

// AccountProfile is everything the fleet engine needs to replay one
// account: its stream partition root, which app it runs, and how hard
// it drives it.
type AccountProfile struct {
	// Index is the account's position in the fleet.
	Index int
	// Kind is the app this account deploys.
	Kind AppKind
	// Seed is the root of the account's PRNG stream partition; derive
	// substreams with Substream.
	Seed int64
	// RequestsPerDay is the account's mean daily request rate.
	RequestsPerDay float64
	// BodyBytes is the mean request payload size.
	BodyBytes int
}

// appMix is the fleet's app-kind distribution: chat-heavy, per the
// paper's framing of messaging as the primary personal workload.
// Indexed by AppKind; weights sum to 1.
var appMix = [NumKinds]float64{0.40, 0.25, 0.15, 0.20}

// kindBaseline is the per-kind mean daily request rate and payload
// size the profile distribution centres on. Chat's 2000/day matches the
// Table 3 prototype spacing; email/filedrop/IoT scale down and up from
// the Table 2 usage assumptions. The spread of rates matters beyond
// cost: inter-request gaps straddle the Lambda warm-container TTL, so
// the fleet sees the full cold-start-vs-idle-gap curve.
var kindBaseline = [NumKinds]struct {
	perDay float64
	body   int
}{
	KindChat:     {2000, 120},
	KindEmail:    {120, 4 << 10},
	KindFiledrop: {24, 48 << 10},
	KindIoT:      {480, 256},
}

// Profile draws account index's profile from the fleet's seeded
// distribution: the app kind by the mix weights, the daily rate
// log-normal around the kind's baseline (σ = 0.35, so accounts differ
// by up to ~3× — a fleet, not a thousand clones), the payload size
// uniform in [½, 1½]× the baseline.
func Profile(base int64, index int) AccountProfile {
	seed := AccountSeed(base, index)
	gen := rng.New(Substream(seed, "profile"))

	kind := NumKinds - 1
	r := gen.Float64()
	for k := AppKind(0); k < NumKinds; k++ {
		if r < appMix[k] {
			kind = k
			break
		}
		r -= appMix[k]
	}
	b := kindBaseline[kind]
	rate := b.perDay * math.Exp(0.35*gen.NormFloat64())
	body := b.body/2 + gen.Intn(b.body)
	return AccountProfile{
		Index:          index,
		Kind:           kind,
		Seed:           seed,
		RequestsPerDay: rate,
		BodyBytes:      body,
	}
}
