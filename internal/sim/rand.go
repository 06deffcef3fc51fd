package sim

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// RNG draw accounting is a package-wide switch rather than a per-cell
// counter: generators are not owned by cells, and a raw draw is a
// handful of arithmetic ops, so even an extra call per draw would
// roughly double its cost. Accounting is
// amortized: composite generators (Float64 rejection loops, Norm,
// Perm, ...) batch their raw draws and settle them with a
// single atomic load + add per call, so the off path costs one atomic
// load per public call — not per draw — and the on path never contends
// the shared counter more than once per call.
var (
	rngAccounting atomic.Bool
	rngDraws      atomic.Uint64
)

// SetRNGAccounting turns global RNG draw counting on or off.
// Accounting is an observer only; it never changes the sequence any
// generator produces.
func SetRNGAccounting(on bool) { rngAccounting.Store(on) }

// RNGDraws reports the draws counted since the last reset.
func RNGDraws() uint64 { return rngDraws.Load() }

// ResetRNGDraws zeroes the draw counter.
func ResetRNGDraws() { rngDraws.Store(0) }

// account settles a batch of n raw draws against the global counter.
func account(n uint64) {
	if rngAccounting.Load() {
		rngDraws.Add(n)
	}
}

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). It is not safe for concurrent use; each model component
// derives its own stream with Split so event ordering never perturbs the
// random sequence of unrelated components.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// SeededRNG returns a generator seeded with seed, by value. Embedding
// the RNG in a per-request struct avoids a second allocation per
// short-lived stream; the sequence is identical to NewRNG(seed)'s.
func SeededRNG(seed uint64) RNG { return RNG{state: seed} }

// Split derives an independent stream from r, keyed by label.
func (r *RNG) Split(label uint64) *RNG {
	// Mix the label through one splitmix round of a forked state.
	forked := r.Uint64() ^ (label * 0x9e3779b97f4a7c15)
	return &RNG{state: forked}
}

// next returns the next 64 random bits without accounting; every
// generator bottoms out here so draw sequences are identical whether
// accounting is off, on, or toggled mid-run.
func (r *RNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	account(1)
	return r.next()
}

// Uint64n returns a uniform value in [0, n) via Lemire's multiply-shift
// range reduction: one 128-bit multiply instead of the hardware divide
// a modulo costs. The result is biased by at most n/2^64 — far below
// anything a simulation can observe — and, like every generator here,
// is a pure function of the stream state.
//
// Intn deliberately keeps its original modulo reduction: switching it
// would change the value stream of every seeded experiment and break
// byte-identical reproduction of the committed artifacts. New code
// should prefer Uint64n.
func (r *RNG) Uint64n(n uint64) uint64 {
	account(1)
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	account(1)
	return float64(r.next()>>11) / (1 << 53)
}

// float64raw is Float64 without accounting, for composite generators
// that settle their draws in one batch.
func (r *RNG) float64raw() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	account(1)
	return int(r.next() % uint64(n))
}

// IntBetween returns a uniform value in [lo, hi] inclusive.
func (r *RNG) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("sim: IntBetween with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	draws := uint64(1)
	u := r.float64raw()
	for u == 0 {
		draws++
		u = r.float64raw()
	}
	account(draws)
	return -mean * math.Log(u)
}

// ExpDuration returns an exponentially distributed duration with mean m.
func (r *RNG) ExpDuration(m Duration) Duration {
	return Duration(r.Exp(float64(m)))
}

// Norm returns a normally distributed value (Box-Muller).
func (r *RNG) Norm(mu, sigma float64) float64 {
	draws := uint64(1)
	u1 := r.float64raw()
	for u1 == 0 {
		draws++
		u1 = r.float64raw()
	}
	u2 := r.float64raw()
	account(draws + 1)
	return mu + sigma*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// LogNormal returns a log-normally distributed value where median is the
// distribution median (exp(mu)) and sigma the shape parameter.
func (r *RNG) LogNormal(median, sigma float64) float64 {
	return median * math.Exp(r.Norm(0, sigma))
}

// LogNormalDuration returns a log-normal duration with the given median.
func (r *RNG) LogNormalDuration(median Duration, sigma float64) Duration {
	return Duration(r.LogNormal(float64(median), sigma))
}

// Perm fills a permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	draws := uint64(0)
	for i := n - 1; i > 0; i-- {
		draws++
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	account(draws)
	return p
}
