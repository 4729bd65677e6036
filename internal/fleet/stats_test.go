package fleet

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"camsim/internal/fleet/quantile"
)

// TestTableHeaderRootTierUplink pins the header fix: a Result built
// around an un-normalized tiers scenario (Scenario.Uplink left zero, as
// it is in every normalized scenario too) must still print the root
// tier's real capacity and contention, not "0.0 Gb/s".
func TestTableHeaderRootTierUplink(t *testing.T) {
	r := &Result{
		Scenario: Scenario{
			Name: "hand-built",
			Tiers: []Tier{
				{Name: "gw", Parent: "core", Uplink: UplinkConfig{Gbps: 1, Contention: ContentionFIFO}},
				{Name: "core", Uplink: UplinkConfig{Gbps: 7.5, Contention: ContentionFairShare}},
			},
		},
	}
	head, _, _ := strings.Cut(r.Table(), "\n")
	if !strings.Contains(head, "uplink 7.5 Gb/s fair-share") {
		t.Fatalf("header does not name the root tier's uplink: %q", head)
	}

	// A normalized run keeps the exact same header (the golden contract):
	// Table reads the root tier from Scenario.Tiers on both paths.
	sc := r.Scenario
	sc.Duration = 0.1
	sc.Classes = []Class{{Name: "edge", Count: 1, FPS: 1, FrameBytes: 100, Tier: "gw"}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	runHead, _, _ := strings.Cut(res.Table(), "\n")
	if !strings.Contains(runHead, "uplink 7.5 Gb/s fair-share") {
		t.Fatalf("normalized run header diverged: %q", runHead)
	}
}

// TestNearestRanksMatchSortedNearestRank holds finalize's rank selection
// to the definition it replaces: for every input, the three selected
// values equal quantile.NearestRank on a sorted copy, and the input is
// only reordered, never altered. The shapes cover the degenerate sizes,
// heavy duplicates (where a pivot value fills most of a window), already
// ordered inputs, and random sizes across both sides of the small-window
// cutoff.
func TestNearestRanksMatchSortedNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	type input struct {
		name string
		xs   []float64
	}
	gen := func(n int, f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	cases := []input{
		{"n=0", nil},
		{"n=1", []float64{3.5}},
		{"n=2", []float64{2, 1}},
		{"n=2 tied", []float64{1, 1}},
		{"all equal", gen(5000, func(int) float64 { return 0.25 })},
		{"two values", gen(4097, func(int) float64 { return float64(rng.Intn(2)) })},
		{"three values", gen(20_000, func(int) float64 { return float64(rng.Intn(3)) })},
		{"one outlier", gen(999, func(i int) float64 { return float64(i / 998) })},
		{"ascending", gen(3000, func(i int) float64 { return float64(i) })},
		{"descending", gen(3000, func(i int) float64 { return float64(-i) })},
		{"organ pipe", gen(3001, func(i int) float64 { return float64(min(i, 3000-i)) })},
	}
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(1<<(1+rng.Intn(14)))
		switch i % 3 {
		case 0:
			cases = append(cases, input{"uniform", gen(n, func(int) float64 { return rng.Float64() })})
		case 1:
			cases = append(cases, input{"heavy tail", gen(n, func(int) float64 { return math.Exp(8 * rng.NormFloat64()) })})
		default:
			// Quantized latencies: a few dozen distinct values, long ties.
			cases = append(cases, input{"quantized", gen(n, func(int) float64 { return math.Round(rng.ExpFloat64()*8) / 8 })})
		}
	}
	for _, tc := range cases {
		sorted := slices.Clone(tc.xs)
		slices.Sort(sorted)
		xs := slices.Clone(tc.xs)
		var got [3]float64
		nearestRanks([]span{{xs: xs}}, got[:], finalQuantiles[:]...)
		for i, q := range finalQuantiles {
			if want := quantile.NearestRank(sorted, q); got[i] != want {
				t.Errorf("%s (n=%d): q=%v selected %v, sorted nearest rank %v", tc.name, len(xs), q, got[i], want)
			}
		}
		slices.Sort(xs)
		if !slices.Equal(xs, sorted) {
			t.Errorf("%s (n=%d): selection changed the multiset of samples", tc.name, len(xs))
		}
	}
}

// TestNearestRanksAcrossSlices holds the selection across several
// slices to a sort of their concatenation, over 1 to 40 slices: every
// rank asked matches quantile.NearestRank on the sorted concatenation,
// and each slice is only reordered. The shapes cover empty slices,
// all-equal values, heavy duplicates, one large slice beside many tiny
// ones, and slices of disjoint ranges, where the pivot taken from one
// slice lies in no other.
func TestNearestRanksAcrossSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(907))
	shapes := []struct {
		name string
		size func(p int) int
		val  func(p int) float64
	}{
		{"uniform", func(int) int { return rng.Intn(3) * rng.Intn(300) }, func(int) float64 { return rng.Float64() }},
		{"all equal", func(int) int { return rng.Intn(200) }, func(int) float64 { return 0.25 }},
		{"heavy duplicates", func(int) int { return rng.Intn(500) }, func(int) float64 { return float64(rng.Intn(3)) }},
		{"one large", func(p int) int {
			if p == 0 {
				return 5000 + rng.Intn(5000)
			}
			return rng.Intn(4)
		}, func(int) float64 { return math.Round(rng.ExpFloat64()*8) / 8 }},
		{"disjoint", func(int) int { return rng.Intn(400) }, func(p int) float64 { return float64(p) + rng.Float64() }},
	}
	for iter := 0; iter < 400; iter++ {
		sh := shapes[iter%len(shapes)]
		parts := make([][]float64, 1+rng.Intn(40))
		var all []float64
		for p := range parts {
			parts[p] = make([]float64, sh.size(p))
			for i := range parts[p] {
				parts[p][i] = sh.val(p)
			}
			all = append(all, parts[p]...)
		}
		slices.Sort(all)
		qs := []float64{0, 1}
		for range rng.Intn(8) {
			qs = append(qs, rng.Float64())
		}
		qs = append(qs, finalQuantiles[:]...)
		slices.Sort(qs)

		sp := make([]span, len(parts))
		for p := range parts {
			sp[p].xs = slices.Clone(parts[p])
		}
		got := make([]float64, len(qs))
		nearestRanks(sp, got, qs...)
		for i, q := range qs {
			if want := quantile.NearestRank(all, q); got[i] != want {
				t.Errorf("iter %d %s (%d slices, n=%d): q=%v selected %v, sorted nearest rank %v",
					iter, sh.name, len(parts), len(all), q, got[i], want)
			}
		}
		for p := range parts {
			slices.Sort(sp[p].xs)
			slices.Sort(parts[p])
			if !slices.Equal(sp[p].xs, parts[p]) {
				t.Errorf("iter %d %s: selection changed the samples of slice %d", iter, sh.name, p)
			}
		}
	}
}

// TestExactQuantilesAllocationFlat pins that the exact path's quantiles
// allocate per class, not per sample: the fleet total is selected across
// the class slices, so 100k samples cost what 1k do.
func TestExactQuantilesAllocationFlat(t *testing.T) {
	cost := func(perClass int) (allocs float64, bytes uint64) {
		rng := rand.New(rand.NewSource(5))
		x := make(exactLatencies, 8)
		for i := range x {
			x[i] = make([]float64, perClass)
			for j := range x[i] {
				x[i][j] = rng.ExpFloat64()
			}
		}
		return testing.AllocsPerRun(5, func() { x.quantiles() }), bytesPerRun(5, func() { x.quantiles() })
	}
	smallN, smallB := cost(125)
	bigN, bigB := cost(12_500)
	if bigN != smallN || bigB != smallB {
		t.Errorf("quantiles: %v allocations, %d B on 100k samples; %v, %d B on 1k", bigN, bigB, smallN, smallB)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
