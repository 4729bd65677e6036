package quantile

import (
	"fmt"
	"math"
	"math/big"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// TestNearestRankHandComputed pins the nearest-rank definition on small
// hand-computed sample sets — including the shapes where the old
// floor-biased int(q·(n−1)) expression read one sample low.
func TestNearestRankHandComputed(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.95, 7},
		{"p50 of two is the first", []float64{1, 2}, 0.50, 1},
		{"p95 of two is the second", []float64{1, 2}, 0.95, 2},
		{"p25 of four", []float64{1, 2, 3, 4}, 0.25, 1},
		{"p50 of four", []float64{1, 2, 3, 4}, 0.50, 2},
		{"p75 of four", []float64{1, 2, 3, 4}, 0.75, 3},
		{"q=0 is the minimum", []float64{1, 2, 3}, 0, 1},
		{"q=1 is the maximum", []float64{1, 2, 3}, 1, 3},
		{"q>1 clamps", []float64{1, 2, 3}, 1.5, 3},
		{"q<0 clamps", []float64{1, 2, 3}, -0.5, 1},
	}
	for _, tc := range cases {
		if got := NearestRank(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: NearestRank(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.q, got, tc.want)
		}
	}
	// n = 100, values 1..100: p95 must be the rank-95 element (95), where
	// the floor expression read index int(0.95·99) = 94 → value 95 too —
	// but at n = 105 the two definitions split: rank ⌈0.95·105⌉ = 100 vs
	// floor index int(0.95·104) = 98 → rank 99.
	big := make([]float64, 105)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := NearestRank(big[:100], 0.95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	q := 0.95
	if got := NearestRank(big, q); got != 100 {
		t.Errorf("p95 of 1..105 = %v, want 100 (floor-biased code read %v)", got, big[int(q*float64(len(big)-1))])
	}
}

// TestNearestRankProperty checks the definition against a brute-force
// rank count over varied sizes: the returned element's 1-based rank is
// exactly ⌈q·n⌉ when all values are distinct.
func TestNearestRankProperty(t *testing.T) {
	rng := newTestRNG(42)
	for _, n := range []int{1, 2, 3, 7, 10, 99, 100, 101, 105, 1000} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.float64()
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			got := NearestRank(vals, q)
			want := int(math.Ceil(q * float64(n)))
			if want < 1 {
				want = 1
			}
			if got != vals[want-1] {
				t.Fatalf("n=%d q=%v: got %v, want rank-%d element %v", n, q, got, want, vals[want-1])
			}
		}
	}
}

// testRNG is a tiny deterministic splitmix64 stream so the tests never
// touch the global math/rand source.
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed} }

func (r *testRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *testRNG) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// rankOf returns v's nearest rank in sorted data: the count of elements
// ≤ v.
func rankOf(sorted []float64, v float64) int {
	return sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1)))
}

// checkSketch asserts every queried quantile's true rank lies within
// Eps·n (plus one rank of nearest-rank rounding) of the target.
func checkSketch(t *testing.T, label string, s *Sketch, sorted []float64) {
	t.Helper()
	n := len(sorted)
	if got := s.Count(); got != uint64(n) {
		t.Fatalf("%s: count %d, want %d", label, got, n)
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		est := s.Quantile(q)
		target := int(math.Ceil(q * float64(n)))
		slack := int(math.Ceil(Eps*float64(n))) + 1
		r := rankOf(sorted, est)
		if r < target-slack || r > target+slack {
			t.Errorf("%s: q=%v estimate %v has rank %d, want %d±%d", label, q, est, r, target, slack)
		}
	}
}

// TestSketchAccuracy streams uniform and heavy-tailed data and checks
// the documented Eps rank bound at several sizes, below and far above
// the sketch's capacity.
func TestSketchAccuracy(t *testing.T) {
	for _, n := range []int{10, K - 1, K + 1, 5_000, 100_000} {
		for _, shape := range []string{"uniform", "heavy-tail"} {
			rng := newTestRNG(uint64(n))
			s := NewSketch()
			vals := make([]float64, n)
			for i := range vals {
				v := rng.float64()
				if shape == "heavy-tail" {
					v = math.Exp(10 * v) // ~4 decades of spread, like latencies
				}
				vals[i] = v
				s.Add(v)
			}
			sort.Float64s(vals)
			checkSketch(t, shape, s, vals)
		}
	}
}

// TestSketchExactBelowCapacity pins that a sketch that never compacted
// answers exactly: below the top compactor's capacity every item is
// retained at weight 1, so Quantile must equal NearestRank.
func TestSketchExactBelowCapacity(t *testing.T) {
	rng := newTestRNG(7)
	s := NewSketch()
	vals := make([]float64, K/2)
	for i := range vals {
		vals[i] = rng.float64()
		s.Add(vals[i])
	}
	sort.Float64s(vals)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got, want := s.Quantile(q), NearestRank(vals, q); got != want {
			t.Fatalf("q=%v: sketch %v, exact %v", q, got, want)
		}
	}
}

// TestSketchMergeAssociativity splits one stream into windows, sketches
// each, and merges them in two different groupings: both merged
// sketches must satisfy the Eps bound against the full sample set —
// the property that makes per-window (and per-shard) sketches
// composable into run-wide quantiles.
func TestSketchMergeAssociativity(t *testing.T) {
	const n, windows = 40_000, 16
	rng := newTestRNG(11)
	vals := make([]float64, n)
	parts := make([]*Sketch, windows)
	for w := range parts {
		parts[w] = NewSketch()
	}
	for i := range vals {
		vals[i] = math.Exp(6 * rng.float64())
		parts[i*windows/n].Add(vals[i])
	}
	sort.Float64s(vals)

	// Left fold: ((w0+w1)+w2)+...
	left := NewSketch()
	for _, p := range parts {
		left.Merge(p)
	}
	checkSketch(t, "left-fold", left, vals)

	// Pairwise tree: (w0+w1)+(w2+w3)+...
	layer := make([]*Sketch, windows)
	for w := range parts {
		layer[w] = NewSketch()
		layer[w].Merge(parts[w])
	}
	for len(layer) > 1 {
		var next []*Sketch
		for i := 0; i < len(layer); i += 2 {
			if i+1 < len(layer) {
				layer[i].Merge(layer[i+1])
			}
			next = append(next, layer[i])
		}
		layer = next
	}
	checkSketch(t, "pair-tree", layer[0], vals)

	// The two groupings agree with each other within 2·Eps ranks.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		a, b := left.Quantile(q), layer[0].Quantile(q)
		ra, rb := rankOf(vals, a), rankOf(vals, b)
		if d := ra - rb; d < -2*int(Eps*n)-2 || d > 2*int(Eps*n)+2 {
			t.Errorf("q=%v: groupings disagree by %d ranks (%v vs %v)", q, d, a, b)
		}
	}
}

// TestSketchDeterminism pins that identical insertion orders produce
// identical answers — the seeded-coin property the simulator's golden
// contract relies on.
func TestSketchDeterminism(t *testing.T) {
	build := func() *Sketch {
		rng := newTestRNG(3)
		s := NewSketch()
		for i := 0; i < 10_000; i++ {
			s.Add(rng.float64())
		}
		return s
	}
	a, b := build(), build()
	for q := 0.0; q <= 1.0; q += 0.01 {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%v: %v vs %v", q, a.Quantile(q), b.Quantile(q))
		}
	}
}

// TestSketchResetReuse pins Reset's contract: a reset sketch is empty,
// keeps satisfying the Eps bound on new data, and — fed identically —
// answers identically run-to-run (the reseeded coin), the property the
// telemetry collector relies on when it cycles one sketch through
// windows instead of allocating a fresh one per window.
func TestSketchResetReuse(t *testing.T) {
	const n = 30_000
	fill := func(s *Sketch, seed uint64) []float64 {
		rng := newTestRNG(seed)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Exp(8 * rng.float64())
			s.Add(vals[i])
		}
		sort.Float64s(vals)
		return vals
	}

	s := NewSketch()
	fill(s, 1)
	s.Reset()
	if s.Count() != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("reset sketch not empty: count %d, p50 %v", s.Count(), s.Quantile(0.5))
	}
	// Second window through the same storage still meets the bound.
	vals := fill(s, 2)
	checkSketch(t, "post-reset", s, vals)

	// Reset determinism: another sketch with the same history answers
	// byte-identically after the same post-reset stream.
	s2 := NewSketch()
	fill(s2, 1)
	s2.Reset()
	fill(s2, 2)
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
		if a, b := s.Quantile(q), s2.Quantile(q); a != b {
			t.Fatalf("q=%v: reset sketches diverge: %v vs %v", q, a, b)
		}
	}
}

// TestSketchEmptyAndNil covers the degenerate surfaces: an empty sketch
// answers 0, merging nil or empty sketches is a no-op.
func TestSketchEmptyAndNil(t *testing.T) {
	s := NewSketch()
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty sketch quantile %v", got)
	}
	s.Merge(nil)
	s.Merge(NewSketch())
	if s.Count() != 0 {
		t.Fatalf("count %d after no-op merges", s.Count())
	}
	s.Add(4)
	if got := s.Quantile(0.99); got != 4 {
		t.Fatalf("single-sample quantile %v", got)
	}
}

// TestSketchQuantilesOneSort pins Quantiles against the weighted
// nearest rank written out longhand: every retained item repeated by its
// weight, sorted, read by NearestRank. The stream repeats a few values,
// so equal values sit on several levels at different weights and the
// sort may order them either way; qs come in no particular order.
func TestSketchQuantilesOneSort(t *testing.T) {
	rng := newTestRNG(3)
	s := NewSketch()
	qs := []float64{0.99, 0.5, 0, 0.95, 1, 0.01}
	out := make([]float64, len(qs))
	s.Quantiles(out, qs...)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("empty sketch: q=%v gave %v", qs[i], v)
		}
	}
	for n := 1; n <= 50_000; n *= 7 {
		for s.Count() < uint64(n) {
			s.Add(math.Round(20*rng.float64()) / 4)
		}
		expanded := expand(s)
		s.Quantiles(out, qs...)
		for i, q := range qs {
			if want := NearestRank(expanded, q); out[i] != want {
				t.Errorf("n=%d q=%v: Quantiles gave %v, weighted nearest rank %v", n, q, out[i], want)
			}
			if got := s.Quantile(q); got != out[i] {
				t.Errorf("n=%d q=%v: Quantile %v, Quantiles %v", n, q, got, out[i])
			}
		}
	}
}

// expand returns the sketch's retained items, each repeated by its
// weight, sorted: the longhand weighted nearest rank reads NearestRank
// from it.
func expand(s *Sketch) []float64 {
	var xs []float64
	for h := range s.height {
		for _, v := range s.level(h) {
			for range 1 << h {
				xs = append(xs, v)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

// TestSketchQueryThenUpdate pins that a query leaves a sketch that
// still answers right once it grows: a query sorts the levels in place,
// and later Adds and Merges append to them unsorted, so a walk that
// assumed a level stays sorted would read a wrong value here.
func TestSketchQueryThenUpdate(t *testing.T) {
	rng := newTestRNG(19)
	s, o := NewSketch(), NewSketch()
	qs := []float64{0.5, 0.01, 0.95, 0.99}
	out := make([]float64, len(qs))
	check := func(stage string) {
		t.Helper()
		expanded := expand(s)
		s.Quantiles(out, qs...)
		for i, q := range qs {
			if want := NearestRank(expanded, q); out[i] != want {
				t.Errorf("%s: q=%v: Quantiles gave %v, weighted nearest rank %v", stage, q, out[i], want)
			}
		}
	}
	for range 3000 {
		s.Add(math.Exp(6 * rng.float64()))
	}
	check("first query")
	for range 700 {
		s.Add(math.Exp(6 * rng.float64()))
	}
	check("after adds")
	for range 5000 {
		o.Add(math.Exp(7 * rng.float64()))
	}
	o.Quantile(0.5)
	s.Merge(o)
	check("after a merge")
	for range 11 {
		s.Add(math.Exp(6 * rng.float64()))
	}
	check("after a few adds")
}

// TestSketchQuantilesAllocFree pins that a query allocates nothing, the
// first one on a sketch included: it sorts the levels in place and walks
// them, with no buffer of its own.
func TestSketchQuantilesAllocFree(t *testing.T) {
	const runs = 10
	rng := newTestRNG(23)
	fresh := make([]*Sketch, runs+1) // AllocsPerRun calls f runs+1 times
	for i := range fresh {
		fresh[i] = NewSketch()
		for range 20_000 {
			fresh[i].Add(rng.float64())
		}
	}
	qs := []float64{0.5, 0.95, 0.99}
	out := make([]float64, len(qs))
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		fresh[next].Quantiles(out, qs...)
		next++
	}); n != 0 {
		t.Errorf("a first query allocates %v times, want 0", n)
	}
	s := fresh[0]
	if n := testing.AllocsPerRun(runs, func() { s.Quantiles(out, qs...) }); n != 0 {
		t.Errorf("Quantiles allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, func() { s.Quantile(0.9) }); n != 0 {
		t.Errorf("Quantile allocates %v times per call, want 0", n)
	}
}

// TestSketchWarmCycleAllocFree pins that a warm sketch allocates
// nothing: once a window sketch and a run sketch hold their final arrays
// (maxItems and 2·maxItems slots), a telemetry window's cycle of Adds,
// query, Merge into the run sketch, Reset and a run-wide query makes no
// allocation.
func TestSketchWarmCycleAllocFree(t *testing.T) {
	rng := newTestRNG(29)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = math.Exp(8 * rng.float64())
	}
	win, run := NewSketch(), NewSketch()
	qs := []float64{0.5, 0.95, 0.99}
	out := make([]float64, len(qs))
	k := 0
	cycle := func() {
		for range 1000 {
			win.Add(xs[k%len(xs)])
			k++
		}
		win.Quantiles(out, qs...)
		run.Merge(win)
		win.Reset()
		run.Quantiles(out, qs...)
	}
	for range 10 {
		cycle()
	}
	if len(win.items) != maxItems || len(run.items) != 2*maxItems {
		t.Fatalf("warm-up left arrays of %d and %d slots, want %d and %d", len(win.items), len(run.items), maxItems, 2*maxItems)
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("a warm window cycle allocates %v times, want 0", n)
	}
}

// TestSketchAddsAllocateOnce pins that a million Adds into a new sketch
// allocate at most once: the array grows once, past K to maxItems, and
// no level regrows.
func TestSketchAddsAllocateOnce(t *testing.T) {
	rng := newTestRNG(31)
	fresh := []*Sketch{NewSketch(), NewSketch()} // AllocsPerRun calls f runs+1 times
	next := 0
	n := testing.AllocsPerRun(1, func() {
		s := fresh[next]
		next++
		for range 1_000_000 {
			s.Add(math.Exp(8 * rng.float64()))
		}
	})
	if n > 1 {
		t.Errorf("a million Adds allocate %v times, want at most 1", n)
	}
}

// refSketch is the sketch as it was before its levels shared one array:
// one slice per level, each made with room for K and regrown by append,
// and capacities from math.Pow. It is kept as the reference
// TestSketchMatchesReference holds Sketch to.
type refSketch struct {
	compactors [][]float64
	size       int
	maxSize    int
	count      uint64
	coin       uint64
}

// capDecay shrinks the reference's capacities geometrically below the
// top.
const capDecay = 2.0 / 3.0

func newRefSketch() *refSketch {
	s := &refSketch{coin: coinSeed}
	s.grow()
	return s
}

func (s *refSketch) Reset() {
	for h := range s.compactors {
		s.compactors[h] = s.compactors[h][:0]
	}
	s.size = 0
	s.count = 0
	s.coin = coinSeed
}

func (s *refSketch) capacity(h int) int {
	depth := len(s.compactors) - 1 - h
	c := int(math.Ceil(K * math.Pow(capDecay, float64(depth))))
	if c < 2 {
		c = 2
	}
	return c
}

func (s *refSketch) grow() {
	s.compactors = append(s.compactors, make([]float64, 0, K))
	s.maxSize = 0
	for h := range s.compactors {
		s.maxSize += s.capacity(h)
	}
}

func (s *refSketch) flip() int {
	s.coin += 0x9e3779b97f4a7c15
	x := s.coin
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x & 1)
}

func (s *refSketch) Add(v float64) {
	s.compactors[0] = append(s.compactors[0], v)
	s.size++
	s.count++
	if s.size >= s.maxSize {
		s.compress()
	}
}

func (s *refSketch) compress() {
	for h := range s.compactors {
		if len(s.compactors[h]) >= s.capacity(h) {
			s.compressLevel(h)
			return
		}
	}
}

func (s *refSketch) compressLevel(h int) {
	if h == len(s.compactors)-1 {
		s.grow()
	}
	c := s.compactors[h]
	sort.Float64s(c)
	lo := len(c) & 1
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

func (s *refSketch) Merge(o *refSketch) {
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

func (s *refSketch) Quantiles(out []float64, qs ...float64) {
	if s.count == 0 {
		clear(out[:len(qs)])
		return
	}
	for _, c := range s.compactors {
		slices.Sort(c)
	}
	var pos [64]int
	var cum uint64
	var v float64
	for done := uint64(0); ; {
		target := uint64(math.MaxUint64)
		for _, q := range qs {
			if t := s.rank(q); t > done && t < target {
				target = t
			}
		}
		if target == math.MaxUint64 {
			return
		}
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

func (s *refSketch) rank(q float64) uint64 {
	target := uint64(math.Ceil(q * float64(s.count)))
	return min(max(target, 1), s.count)
}

// clone returns a deep copy of s.
func (s *refSketch) clone() *refSketch {
	c := *s
	c.compactors = make([][]float64, len(s.compactors))
	for h, l := range s.compactors {
		c.compactors[h] = append(make([]float64, 0, cap(l)), l...)
	}
	return &c
}

// twin is one Sketch and one reference fed the same operations.
type twin struct {
	s *Sketch
	r *refSketch
}

func newTwin() twin { return twin{NewSketch(), newRefSketch()} }

// probeQs are the ranks every comparison asks both sketches for.
var probeQs = []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1}

// sameBits reports whether a and b hold the same float64 bits in order.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// matchTwin fails the test unless tw's sketch and its reference hold the
// same height and maxSize, the same sorted contents on every level and
// the same count, and, if probe is set, the same answer to every probe
// rank. The probes query copies, so checking sorts no level of either
// sketch in place.
func matchTwin(t *testing.T, step string, tw twin, probe bool) {
	t.Helper()
	s, r := tw.s, tw.r
	if s.height != len(r.compactors) || s.maxSize != r.maxSize {
		t.Fatalf("%s: height %d and maxSize %d, reference %d and %d", step, s.height, s.maxSize, len(r.compactors), r.maxSize)
	}
	for h := range s.height {
		got := slices.Sorted(slices.Values(s.level(h)))
		want := slices.Sorted(slices.Values(r.compactors[h]))
		if !sameBits(got, want) {
			t.Fatalf("%s: level %d holds %v, reference %v", step, h, got, want)
		}
	}
	if s.Count() != r.count || s.size() != r.size {
		t.Fatalf("%s: count %d and size %d, reference %d and %d", step, s.Count(), s.size(), r.count, r.size)
	}
	if !probe {
		return
	}
	c := *s
	c.items = slices.Clone(s.items)
	got, want := make([]float64, len(probeQs)), make([]float64, len(probeQs))
	c.Quantiles(got, probeQs...)
	r.clone().Quantiles(want, probeQs...)
	if !sameBits(got, want) {
		t.Fatalf("%s: answers %v, reference %v", step, got, want)
	}
}

// TestSketchMatchesReference drives Sketch and the reference through
// seeded random programs of Adds, Merges, merges into a fresh sketch,
// Resets and queries, and checks every sketch in play after every step:
// each level's sorted contents, the count and every answer must be equal
// bit for bit. Levels hold the same multisets, so no output can move.
// Values repeat often, so equal values sit on several levels; none is
// −0 or NaN, the two whose order among equals a sort may change.
func TestSketchMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := newTestRNG(seed)
		intn := func(n int) int { return int(rng.next() % uint64(n)) }
		value := func() float64 {
			switch intn(3) {
			case 0:
				return math.Round(20*rng.float64()) / 4 // 21 values, 0 included
			case 1:
				return math.Exp(10 * rng.float64())
			}
			return rng.float64()
		}
		pool := []twin{newTwin(), newTwin(), newTwin(), newTwin(), newTwin()}
		for step := range 300 {
			i := intn(len(pool))
			tw := pool[i]
			old := slices.Clone(pool)
			var what string
			switch op := intn(12); {
			case op < 4:
				// Mostly short runs of Adds, now and then long enough to
				// grow a sketch several levels taller than the others.
				n := 1 + intn(600)
				if op == 0 {
					n = 1 + intn(20_000)
				}
				for range n {
					v := value()
					tw.s.Add(v)
					tw.r.Add(v)
				}
				what = fmt.Sprintf("%d adds", n)
			case op < 7:
				// Any sketch in the pool: empty, shorter, taller, queried,
				// or this one itself.
				j := intn(len(pool))
				tw.s.Merge(pool[j].s)
				tw.r.Merge(pool[j].r)
				what = fmt.Sprintf("merge of sketch %d", j)
			case op == 7:
				// A fresh sketch takes this one, as the fleet total is
				// made, and replaces another in the pool.
				f := newTwin()
				f.s.Merge(tw.s)
				f.r.Merge(tw.r)
				j := intn(len(pool))
				pool[j] = f
				what = fmt.Sprintf("merge into a fresh sketch %d", j)
			case op == 8:
				tw.s.Reset()
				tw.r.Reset()
				what = fmt.Sprintf("reset at height %d", tw.s.height)
			case op == 9:
				pool[i] = newTwin()
				what = "a new sketch"
			default:
				qs := make([]float64, 1+intn(6))
				for k := range qs {
					qs[k] = rng.float64()
				}
				qs[0] = probeQs[intn(len(probeQs))]
				got, want := make([]float64, len(qs)), make([]float64, len(qs))
				tw.s.Quantiles(got, qs...)
				tw.r.Quantiles(want, qs...)
				if !sameBits(got, want) {
					t.Fatalf("seed %d step %d: Quantiles(%v) = %v, reference %v", seed, step, qs, got, want)
				}
				what = "a query"
			}
			// Every sketch is checked, so a step that writes into another
			// sketch's storage fails too; the ones the step changed are
			// queried as well.
			for k, p := range pool {
				matchTwin(t, fmt.Sprintf("seed %d step %d (%s on sketch %d), sketch %d", seed, step, what, i, k), p, p == tw || p != old[k])
			}
		}
	}
}

// TestCapacityTable pins the capacity table at all maxLevels depths to
// ⌈K·2^d/3^d⌉ (floor 2) in exact integer arithmetic, and on amd64 to the
// float expression it replaced, and maxItems to the sum.
func TestCapacityTable(t *testing.T) {
	sum := 0
	for d := range maxLevels {
		num := new(big.Int).Lsh(big.NewInt(K), uint(d))
		den := new(big.Int).Exp(big.NewInt(3), big.NewInt(int64(d)), nil)
		q, m := new(big.Int).QuoRem(num, den, new(big.Int))
		want := q.Int64()
		if m.Sign() != 0 {
			want++
		}
		want = max(want, 2)
		if got := capacity(d); int64(got) != want {
			t.Errorf("capacity(%d) = %d, exact %d", d, got, want)
		}
		if runtime.GOARCH == "amd64" {
			if f := max(int(math.Ceil(K*math.Pow(capDecay, float64(d)))), 2); capacity(d) != f {
				t.Errorf("capacity(%d) = %d, float expression %d", d, capacity(d), f)
			}
		}
		sum += capacity(d)
	}
	if maxItems != sum || maxItems != 1303 {
		t.Errorf("maxItems %d, want the sum %d (1303)", maxItems, sum)
	}
}
