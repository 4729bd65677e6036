package fleet

import (
	"math"
	"math/rand"
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
		got := nearestRanks(xs)
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
