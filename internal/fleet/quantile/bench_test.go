package quantile

import (
	"math"
	"testing"
)

// BenchmarkSketchWindows prices the sketches of one streaming-churn run
// alone: 32 classes, each with a window sketch that takes 190 latencies
// per window for 31 windows; each window is queried for p50, p95 and
// p99, merged into its class's run sketch and reset; at the end every
// run sketch is queried and merged into a fleet total, which is queried
// too. One op is the whole run, the 65 sketches made included, so B/op
// is what one run's statistics allocate. Baselines live in
// BENCH_topology.json and are gated by cmd/benchgate in CI.
func BenchmarkSketchWindows(b *testing.B) {
	const classes, windows, perWindow = 32, 31, 190
	rng := newTestRNG(5)
	xs := make([]float64, classes*windows*perWindow)
	for i := range xs {
		// Latency-like: a fixed path delay plus an exponential queueing
		// tail.
		xs[i] = 0.0172 - 0.0005*math.Log(1-rng.float64())
	}
	qs := []float64{0.5, 0.95, 0.99}
	out := make([]float64, len(qs))
	b.ReportAllocs()
	for b.Loop() {
		run, win := make([]*Sketch, classes), make([]*Sketch, classes)
		for c := range classes {
			run[c], win[c] = NewSketch(), NewSketch()
		}
		next := xs
		for range windows {
			for c := range classes {
				for _, x := range next[:perWindow] {
					win[c].Add(x)
				}
				next = next[perWindow:]
				win[c].Quantiles(out, qs...)
				run[c].Merge(win[c])
				win[c].Reset()
			}
		}
		total := NewSketch()
		for _, s := range run {
			s.Quantiles(out, qs...)
			total.Merge(s)
		}
		total.Quantiles(out, qs...)
	}
}
