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
	// maxLevels bounds a sketch's height: level h holds items of weight
	// 2^h, and a uint64 count never reaches an item of weight 2^64.
	maxLevels = 64
	// coinSeed seeds every sketch's compaction coin, so identical
	// insertion orders produce identical sketches.
	coinSeed = 0x5ca1ab1e0ddba11
)

// capacities[d] is the capacity of the level d below a sketch's top,
// ⌈K·2^d/3^d⌉, so capacities decay by 2/3 per level; TestCapacityTable
// checks every entry in exact integer arithmetic. Depths past the table
// take its last entry, the floor of 2.
var capacities = [...]int{400, 267, 178, 119, 80, 53, 36, 24, 16, 11, 7, 5, 4, 3, 2}

// capacity returns the capacity of the level d below a sketch's top.
func capacity(d int) int { return capacities[min(d, len(capacities)-1)] }

// maxItems is the largest maxSize, at maxLevels levels: no sequence of
// Adds ever needs more room.
var maxItems = func() (n int) {
	for d := range maxLevels {
		n += capacity(d)
	}
	return n
}()

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
// algorithm, the error model and the storage layout.
type Sketch struct {
	// items holds every level, packed at its end: free space first, then
	// level 0 up to the top level. Level h is items[levels[h]:levels[h+1]]
	// and holds items of weight 2^h, unsorted between compactions and
	// queries. Offsets are int32, which halves the sketch's fixed size;
	// no array comes near 2^31 items (see reserve).
	items   []float64
	levels  [maxLevels + 1]int32
	height  int    // levels in use; levels[height] == len(items)
	maxSize int    // sum of level capacities at the current height
	count   uint64 // total weight = items observed (Add + Merge)
	coin    uint64 // splitmix64 state for compaction offsets
}

// NewSketch returns an empty sketch with room for K items. The
// compaction coin is seeded by a fixed constant so identical insertion
// orders produce identical sketches (see the package comment on
// determinism).
func NewSketch() *Sketch {
	s := &Sketch{items: make([]float64, K), coin: coinSeed}
	s.levels[0] = K
	s.grow()
	return s
}

// Reset empties the sketch while keeping its storage and its height, so
// a caller cycling a sketch through telemetry windows reuses memory
// instead of allocating a fresh sketch per window. The coin is reseeded,
// so identical post-Reset insertion orders produce identical results
// run-to-run. (A reset sketch of height > 1 compacts on its grown
// thresholds, so its retained items can differ from a brand-new
// sketch's on the same input — the error bound is unaffected.)
func (s *Sketch) Reset() {
	for h := range s.height {
		s.levels[h] = int32(len(s.items))
	}
	s.count = 0
	s.coin = coinSeed
}

// level returns level h's items.
func (s *Sketch) level(h int) []float64 { return s.items[s.levels[h]:s.levels[h+1]] }

// size returns the number of items held across all levels.
func (s *Sketch) size() int { return len(s.items) - int(s.levels[0]) }

// grow adds an empty top level and recomputes maxSize: growing the
// height pushes every level one deeper, so the new depth's capacity
// joins the sum.
func (s *Sketch) grow() {
	s.maxSize += capacity(s.height)
	s.height++
	s.levels[s.height] = int32(len(s.items))
}

// reserve makes room for n more items. The first move past K makes room
// for maxItems, which no sequence of Adds outgrows; a merge that needs
// more doubles the array until both sketches fit. A sketch at rest holds
// fewer than maxItems items, so no array grows past 2·maxItems.
func (s *Sketch) reserve(n int) {
	if int(s.levels[0]) >= n {
		return
	}
	c := max(maxItems, len(s.items))
	for c < s.size()+n {
		c *= 2
	}
	items := make([]float64, c)
	shift := int32(len(items) - len(s.items))
	copy(items[s.levels[0]+shift:], s.items[s.levels[0]:])
	for h := range s.height + 1 {
		s.levels[h] += shift
	}
	s.items = items
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
	if s.levels[0] == 0 {
		s.reserve(1)
	}
	s.levels[0]--
	s.items[s.levels[0]] = v
	s.count++
	if s.size() >= s.maxSize {
		s.compress()
	}
}

// Count returns the total weight observed (Add calls plus merged
// counts).
func (s *Sketch) Count() uint64 { return s.count }

// compress compacts the lowest level at capacity. When size ≥ maxSize
// at least one level is at capacity (pigeonhole), and a compaction
// always frees at least one slot.
func (s *Sketch) compress() {
	for h := range s.height {
		if int(s.levels[h+1]-s.levels[h]) >= capacity(s.height-1-h) {
			s.compressLevel(h)
			return
		}
	}
}

// compressLevel sorts level h and promotes every other item — starting
// at a coin-flipped offset — to level h+1 at doubled weight. An odd
// leftover (the smallest item) stays on level h, so total weight is
// exactly preserved. The promoted items are packed against level h+1
// from below, the leftover below them, and the levels under h shift up
// into the slots the compaction freed.
func (s *Sketch) compressLevel(h int) {
	if h == s.height-1 {
		s.grow()
	}
	lo, hi := int(s.levels[h]), int(s.levels[h+1])
	c := s.items[lo:hi]
	sort.Float64s(c)
	odd := len(c) & 1 // odd leftover: c[0] stays on level h
	off := s.flip()
	promoted := (len(c) - odd - off + 1) / 2
	// Item i moves from c[odd+off+2i] to slot hi-promoted+i, never below
	// where it came from, so copying from the top down overwrites only
	// items already moved.
	for i := promoted - 1; i >= 0; i-- {
		s.items[hi-promoted+i] = c[odd+off+2*i]
	}
	top := hi - promoted // level h+1's new start
	if odd == 1 {
		s.items[top-1] = c[0]
	}
	gap := int32(top - odd - lo)
	copy(s.items[s.levels[0]+gap:], s.items[s.levels[0]:lo])
	for l := range h {
		s.levels[l] += gap
	}
	s.levels[h] = int32(top - odd)
	s.levels[h+1] = int32(top)
}

// Merge folds o into s level by level; o is left untouched. The merged
// count is the sum and the rank-error bound is preserved. Every item of
// o joins s before any compaction, so s makes room for both sketches'
// items at once.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	for s.height < o.height {
		s.grow()
	}
	s.reserve(o.size())
	// From the bottom up, level h moves down by the items o adds at and
	// above it, and o's level h lands just below it. Both writes stay
	// under level h+1's old start, so no item is overwritten unread.
	shift := o.size()
	for h := range o.height {
		add := o.level(h)
		lo, hi := int(s.levels[h]), int(s.levels[h+1])
		copy(s.items[lo-shift:], add)
		shift -= len(add)
		copy(s.items[lo-shift:], s.items[lo:hi])
		s.levels[h] = int32(lo - shift - len(add))
	}
	s.count += o.count
	for s.size() >= s.maxSize {
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
	for h := range s.height {
		slices.Sort(s.level(h))
	}
	pos := s.levels // level h's walk cursor runs from its start to levels[h+1]
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
			for h := range s.height {
				if pos[h] < s.levels[h+1] && (b < 0 || s.items[pos[h]] < s.items[pos[b]]) {
					b = h
				}
			}
			v = s.items[pos[b]]
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
