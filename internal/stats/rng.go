// Package stats provides deterministic random number generation and the
// probability distributions used by the workload generator and the
// trace-driven simulator: Poisson inter-arrival times (§5.2.1 of the paper,
// λ = 10 jobs/minute), Binomial mixes for batch-size and network type
// (§5.3), and plain uniform/exponential helpers.
//
// All randomness flows through a SplitMix64 generator seeded explicitly, so
// every experiment in this repository is reproducible bit-for-bit.
package stats

import (
	"math"
	"strconv"
)

// RNG is a deterministic pseudo-random generator based on SplitMix64.
// SplitMix64 passes BigCrush, needs only 64 bits of state, and — unlike
// math/rand's global source — is trivially seedable and copyable, which the
// simulator exploits to give every job stream an independent substream.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical sequences.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// DeriveSeed maps a base seed and a textual key to a new seed, using an
// FNV-1a hash of the key folded into the base through the SplitMix64
// finalizer. The derivation is a pure function of its inputs, so sweep
// runs can hand every grid point a private seed that does not depend on
// worker count or execution order: parallel and serial sweeps draw
// identical random streams.
func DeriveSeed(base uint64, key string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211 // FNV-1a prime
	}
	z := base + 0x9e3779b97f4a7c15 + h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ReplicaSeeds expands a base seed into n replica seeds via DeriveSeed.
// Replica i always receives the same seed for a given base, regardless of
// how many replicas are requested.
func ReplicaSeeds(base uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = DeriveSeed(base, "replica-"+strconv.Itoa(i))
	}
	return seeds
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits → [0,1) with full double precision.
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exponential samples an exponentially distributed value with the given
// rate (events per unit time). The mean of the returned values is 1/rate.
// Poisson arrival processes are generated by summing Exponential
// inter-arrival gaps.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential with non-positive rate")
	}
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Binomial samples the number of successes in n trials with success
// probability p. The paper draws batch-size classes from Binomial(3, ½)
// (0=tiny … 3=big) and NN types from Binomial(2, ½) (0=AlexNet,
// 1=CaffeRef, 2=GoogLeNet).
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 || p < 0 || p > 1 {
		panic("stats: Binomial with invalid parameters")
	}
	k := 0
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			k++
		}
	}
	return k
}

// Normal samples a normally distributed value with the given mean and
// standard deviation using the Box–Muller transform. Used to jitter
// simulated runtimes the way five repeated hardware runs would (§3.1).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}
