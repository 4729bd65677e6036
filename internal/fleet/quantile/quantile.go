package quantile

import (
	"cmp"
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
	// compactions.
	compactors [][]float64
	size       int    // items held across all compactors
	maxSize    int    // sum of compactor capacities at the current height
	count      uint64 // total weight = items observed (Add + Merge)
	coin       uint64 // splitmix64 state for compaction offsets
	scratch    []wv   // Quantiles' flatten buffer, reused across calls
}

// wv is one retained value with its compactor weight, Quantiles' sort
// unit.
type wv struct {
	v float64
	w uint64
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

// grow adds one compactor level and recomputes maxSize (growing the
// height shrinks every lower level's capacity).
func (s *Sketch) grow() {
	s.compactors = append(s.compactors, nil)
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
// Merge, Quantile is not safe for concurrent use — it reuses a
// per-sketch flatten buffer across calls.
func (s *Sketch) Quantile(q float64) float64 {
	var v [1]float64
	s.Quantiles(v[:], q)
	return v[0]
}

// Quantiles sets out[i] to Quantile(qs[i]) for every i, in any order of
// qs, from one flatten and sort of the retained items where as many
// Quantile calls pay for one each. out must hold len(qs) values.
func (s *Sketch) Quantiles(out []float64, qs ...float64) {
	if s.count == 0 {
		clear(out[:len(qs)])
		return
	}
	items := s.scratch[:0]
	for h, c := range s.compactors {
		w := uint64(1) << uint(h)
		for _, v := range c {
			items = append(items, wv{v, w})
		}
	}
	s.scratch = items
	// Equal values may sort in any order: the value at a weight crossing
	// is the same whichever of them crosses.
	slices.SortFunc(items, func(a, b wv) int { return cmp.Compare(a.v, b.v) })
	for i, q := range qs {
		out[i] = s.at(items, q)
	}
}

// at returns the smallest value of the sorted items whose cumulative
// weight reaches the q-quantile's nearest rank.
func (s *Sketch) at(items []wv, q float64) float64 {
	target := uint64(math.Ceil(q * float64(s.count)))
	if target < 1 {
		target = 1
	}
	if target > s.count {
		target = s.count
	}
	var cum uint64
	for _, it := range items {
		cum += it.w
		if cum >= target {
			return it.v
		}
	}
	return items[len(items)-1].v
}
