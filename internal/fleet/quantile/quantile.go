package quantile

import (
	"math"
	"slices"
	"sort"
)

const (
	// K is every Sketch's top-compactor capacity.
	K = 400
	// Eps is the documented rank-error bound of a Sketch at K: an
	// estimate's true rank lies within Eps·n of the requested one.
	Eps = 0.01
	// capDecay shrinks compactor capacities geometrically below the top.
	capDecay = 2.0 / 3.0
	// coinSeed seeds every sketch's compaction coin, so identical
	// insertion orders produce identical sketches.
	coinSeed = 0x5ca1ab1e0ddba11
)

// NearestRank returns the q-quantile (0..1) of sorted by the
// nearest-rank definition: the element of 1-based rank Rank(n, q). An
// empty slice returns 0, matching the simulator's "no samples"
// convention.
func NearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[Rank(len(sorted), q)-1]
}

// Rank returns the nearest-rank definition's 1-based rank of the
// q-quantile (0..1) among n > 0 samples: ⌈q·n⌉, clamped to [1, n].
func Rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Sketch is a mergeable KLL quantile sketch. The zero value is not
// usable; construct with NewSketch. See the package comment for the
// algorithm and the error model.
type Sketch struct {
	// compactors[h] holds items of weight 2^h, unsorted between
	// compactions and queries.
	compactors [][]float64
	size       int    // items held across all compactors
	maxSize    int    // sum of compactor capacities at the current height
	count      uint64 // total weight = items observed (Add + Merge)
	coin       uint64 // splitmix64 state for compaction offsets
}

// NewSketch returns an empty sketch. The compaction coin is seeded by a
// fixed constant so identical insertion orders produce identical
// sketches (see the package comment on determinism).
func NewSketch() *Sketch {
	s := &Sketch{coin: coinSeed}
	s.grow()
	return s
}

// Reset empties the sketch while keeping its allocated storage: every
// compactor keeps its backing array and the sketch keeps its height, so
// a caller cycling a sketch through telemetry windows reuses memory
// instead of allocating a fresh sketch per window. The coin is reseeded,
// so identical post-Reset insertion orders produce identical results
// run-to-run. (A reset sketch of height > 1 compacts on its grown
// thresholds, so its retained items can differ from a brand-new
// sketch's on the same input — the error bound is unaffected.)
func (s *Sketch) Reset() {
	for h := range s.compactors {
		s.compactors[h] = s.compactors[h][:0]
	}
	s.size = 0
	s.count = 0
	s.coin = coinSeed
}

// capacity returns level h's capacity at the sketch's current height:
// K at the top, decaying by capDecay per level below it, never under 2.
func (s *Sketch) capacity(h int) int {
	depth := len(s.compactors) - 1 - h
	c := int(math.Ceil(K * math.Pow(capDecay, float64(depth))))
	if c < 2 {
		c = 2
	}
	return c
}

// grow adds one compactor level, with room for the top capacity K, and
// recomputes maxSize (growing the height shrinks every lower level's
// capacity).
func (s *Sketch) grow() {
	s.compactors = append(s.compactors, make([]float64, 0, K))
	s.maxSize = 0
	for h := range s.compactors {
		s.maxSize += s.capacity(h)
	}
}

// flip draws one compaction offset (0 or 1) from the seeded coin.
func (s *Sketch) flip() int {
	s.coin += 0x9e3779b97f4a7c15
	x := s.coin
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x & 1)
}

// Add observes one value.
func (s *Sketch) Add(v float64) {
	s.compactors[0] = append(s.compactors[0], v)
	s.size++
	s.count++
	if s.size >= s.maxSize {
		s.compress()
	}
}

// Count returns the total weight observed (Add calls plus merged
// counts).
func (s *Sketch) Count() uint64 { return s.count }

// compress compacts the lowest over-capacity level. When size ≥
// maxSize at least one level is at capacity (pigeonhole), and a
// compaction always frees at least one slot.
func (s *Sketch) compress() {
	for h := range s.compactors {
		if len(s.compactors[h]) >= s.capacity(h) {
			s.compressLevel(h)
			return
		}
	}
}

// compressLevel sorts level h and promotes every other item — starting
// at a coin-flipped offset — to level h+1 at doubled weight. An odd
// leftover (the smallest item) stays put, so total weight is exactly
// preserved.
func (s *Sketch) compressLevel(h int) {
	if h == len(s.compactors)-1 {
		s.grow()
	}
	c := s.compactors[h]
	sort.Float64s(c)
	lo := len(c) & 1 // odd leftover: c[0] survives in place
	off := s.flip()
	next := s.compactors[h+1]
	for i := lo + off; i < len(c); i += 2 {
		next = append(next, c[i])
	}
	s.compactors[h+1] = next
	promoted := (len(c) - lo - off + 1) / 2
	s.size -= (len(c) - lo) - promoted
	s.compactors[h] = c[:lo]
}

// Merge folds o into s level by level; o is left untouched. The merged
// count is the sum and the rank-error bound is preserved.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	for len(s.compactors) < len(o.compactors) {
		s.grow()
	}
	for h, c := range o.compactors {
		s.compactors[h] = append(s.compactors[h], c...)
	}
	s.size += o.size
	s.count += o.count
	for s.size >= s.maxSize {
		s.compress()
	}
}

// Quantile returns the sketch's nearest-rank estimate of the
// q-quantile (0..1): the smallest retained value whose cumulative
// weight reaches ⌈q·Count⌉, clamped to [1, Count]. An empty sketch
// returns 0, matching NearestRank on an empty slice. Like Add and
// Merge, Quantile is not safe for concurrent use: it sorts the
// sketch's levels in place.
func (s *Sketch) Quantile(q float64) float64 {
	var v [1]float64
	s.Quantiles(v[:], q)
	return v[0]
}

// Quantiles sets out[i] to Quantile(qs[i]) for every i, in any order of
// qs. It sorts each level in place and answers every rank from one
// merged walk over the sorted levels, taking the targets in increasing
// order, where as many Quantile calls pay for a walk each. out must hold
// len(qs) values. It allocates nothing.
func (s *Sketch) Quantiles(out []float64, qs ...float64) {
	if s.count == 0 {
		clear(out[:len(qs)])
		return
	}
	// Compaction sorts a level before it promotes from it, so the order
	// a query leaves behind changes no later answer.
	for _, c := range s.compactors {
		slices.Sort(c)
	}
	var pos [64]int // each level's walk cursor: a uint64 count allows 64 levels
	var cum uint64  // weight walked so far
	var v float64   // the value whose weight was walked last
	for done := uint64(0); ; {
		// The least target not yet answered; every q asking it is
		// answered together.
		target := uint64(math.MaxUint64)
		for _, q := range qs {
			if t := s.rank(q); t > done && t < target {
				target = t
			}
		}
		if target == math.MaxUint64 {
			return
		}
		// Levels hold exactly count weight, so the walk reaches every
		// target. Equal values on several levels may be walked in any
		// order: the value at a weight crossing is the same.
		for cum < target {
			b := -1
			for h, c := range s.compactors {
				if pos[h] < len(c) && (b < 0 || c[pos[h]] < s.compactors[b][pos[b]]) {
					b = h
				}
			}
			v = s.compactors[b][pos[b]]
			pos[b]++
			cum += 1 << uint(b)
		}
		for i, q := range qs {
			if s.rank(q) == target {
				out[i] = v
			}
		}
		done = target
	}
}

// rank returns the q-quantile's nearest rank in the sketch's weight,
// ⌈q·Count⌉ clamped to [1, Count].
func (s *Sketch) rank(q float64) uint64 {
	target := uint64(math.Ceil(q * float64(s.count)))
	return min(max(target, 1), s.count)
}
