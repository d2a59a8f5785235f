// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used by every stochastic component in the repository
// (traffic sources, workload synthesis, property tests).
//
// The generator is splitmix64 (Steele, Lea, Flood; JDK SplittableRandom).
// It is deliberately not crypto-grade: the goals are bit-for-bit
// reproducibility across runs and machines, cheap splitting so that every
// PE / matrix row / graph vertex can own an independent stream, and zero
// dependencies beyond the standard library.
package xrand

import (
	"math"
	"math/bits"
)

// golden is the 64-bit golden-ratio increment used by splitmix64.
const golden = 0x9e3779b97f4a7c15

// Rand is a deterministic pseudo-random stream. The zero value is a valid
// generator seeded with 0; prefer New or Split for distinct streams.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// mix is the splitmix64 output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += golden
	return mix(r.state)
}

// Split returns a new generator whose stream is statistically independent
// of the receiver's. The receiver advances by one step.
func (r *Rand) Split() *Rand {
	return &Rand{state: mix(r.Uint64())}
}

// SplitBy returns an independent generator derived from the receiver's seed
// and a caller-chosen label, without advancing the receiver. Use it to give
// entity i (a PE, a row, a vertex) its own stream as a pure function of
// (seed, i).
func (r *Rand) SplitBy(label uint64) *Rand {
	return &Rand{state: mix(r.state+golden) ^ mix(label*golden+1)}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Zipf returns integers in [0, n) with probability proportional to
// 1/(rank+1)^s, favouring small values. It precomputes the CDF; use one
// Zipf per (n, s) pair.
type Zipf struct {
	cdf []float64
	r   *Rand
}

// NewZipf constructs a Zipf sampler over [0, n) with exponent s > 0.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, r: r}
}

// Next samples one value.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
