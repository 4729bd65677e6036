package fleet

import "math"

// prng is the simulator's compact per-entity random stream: a splitmix64
// generator whose entire state is one uint64 embedded by value in its
// owner. It replaces the per-camera *rand.Rand of earlier revisions —
// rand.NewSource's lagged-Fibonacci state is ~5 KB behind a pointer, so a
// 100k-camera fleet carried ~500 MB of cache-hostile heap just for
// randomness; the same fleet now carries 800 KB inline with the cameras.
//
// splitmix64 walks its state by a fixed odd increment (the golden-ratio
// gamma) and returns a finalizing mix of the new state, so every seed
// yields a full-period (2^64) stream and two streams whose mixed seeds
// differ anywhere are statistically independent. Seeds come from
// streamSeed, itself splitmix64-mixed, so consecutive camera indexes
// start at unrelated stream positions.
//
// Uint64, Float64, ExpFloat64, Intn and PeekIntn are its whole surface.
// The float and Intn draws differ from rand.Rand's ziggurat-based ones —
// switching to them was the one-time seeded-stream shift noted in doc.go.
type prng struct {
	state uint64
}

// newPRNG returns a stream positioned by the given (pre-mixed) seed.
func newPRNG(seed int64) prng { return prng{state: uint64(seed)} }

// splitmix64 is one round of the splitmix64 mixer: step x by the gamma,
// then finalize.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 advances the stream one step and returns 64 random bits.
func (p *prng) Uint64() uint64 {
	z := splitmix64(p.state)
	p.state += 0x9e3779b97f4a7c15
	return z
}

// The seed families: each kind of stream is derived under its own tag,
// so the families stay disjoint and adding a subsystem never perturbs
// another family's draws.
const (
	seedCamera     = 0          // per camera, by global camera index
	seedController = 0xc0117801 // per adaptive class, by class index
	seedGlobal     = 0x61017ba1 // the global controller, by class count
	seedFederated  = 0xfedc0de5 // per federated participant, by camera index
	seedDynamics   = 0xd11aa1c5 // per churn schedule entry, by entry index
	seedArrival    = 0xa771fa15 // per Poisson class, by class index
)

// streamSeed derives the seed of stream idx of a family from the
// scenario seed, so a stream is a function of (seed, family, index)
// alone — stable under reordering, class edits elsewhere, or parallel
// sweeps. Two full mixing rounds keep every seed bit live: the earlier
// seed<<20+idx camera pre-mix discarded the seed's top 20 bits and
// collided outright for camera indexes ≥ 2^20.
func streamSeed(seed int64, family uint64, idx int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)^family) + uint64(idx)))
}

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (p *prng) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponential draw with rate 1 by inversion:
// -ln(1-U) for uniform U in [0, 1). The inverse CDF needs one uniform per
// draw and no tables, trading rand.Rand's amortized-faster ziggurat for
// zero state — the right side of the trade when the state lives in every
// camera.
func (p *prng) ExpFloat64() float64 {
	return -math.Log(1 - p.Float64())
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0. The modulo
// bias is at most n/2^64 — unobservable at simulator population sizes —
// in exchange for a branch-free single draw.
func (p *prng) Intn(n int) int {
	if n <= 0 {
		panic("fleet: prng.Intn with non-positive n")
	}
	return int(p.Uint64() % uint64(n))
}

// PeekIntn returns what the next Intn(n) returns, without advancing the
// stream: its receiver is a copy, so only the copy draws.
func (p prng) PeekIntn(n int) int {
	return p.Intn(n)
}
