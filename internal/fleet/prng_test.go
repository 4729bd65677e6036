package fleet

import (
	"math"
	"testing"
)

// TestPRNGReferenceVectors pins the compact stream to the splitmix64
// reference sequence: the generator IS the seeded-results contract now
// (doc.go "Performance"), so any change to the increment, the mixer, or
// the float conversion must show up here before it silently shifts every
// golden.
func TestPRNGReferenceVectors(t *testing.T) {
	cases := []struct {
		seed int64
		want [5]uint64
	}{
		// The canonical splitmix64 outputs for state 1.
		{1, [5]uint64{
			0x910a2dec89025cc1,
			0xbeeb8da1658eec67,
			0xf893a2eefb32555e,
			0x71c18690ee42c90b,
			0x71bb54d8d101b5b9,
		}},
		// A seed equal to the gamma itself must not degenerate.
		{int64(-7046029254386353131), [5]uint64{
			0x6e789e6aa1b965f4,
			0x06c45d188009454f,
			0xf88bb8a8724c81ec,
			0x1b39896a51a8749b,
			0x53cb9f0c747ea2ea,
		}},
	}
	for _, tc := range cases {
		p := newPRNG(tc.seed)
		for i, want := range tc.want {
			if got := p.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: %#016x, want %#016x", tc.seed, i, got, want)
			}
		}
	}

	// The derived distributions are pure functions of Uint64; pin the
	// float conversion too (53-bit mantissa, [0,1)).
	p := newPRNG(42)
	wantF := []float64{0.74156487877182331, 0.1599103928769201, 0.27860113025513866}
	for i, want := range wantF {
		if got := p.Float64(); got != want {
			t.Fatalf("Float64 draw %d: %.17g, want %.17g", i, got, want)
		}
	}

	// ExpFloat64 draws every Poisson gap, through math.Log, so its bits
	// are pinned as well as its range and mean. Recorded on amd64.
	p = newPRNG(42)
	for i, want := range []uint64{0x3ff5a6574c7543bc, 0x3fc64db768f3aec5, 0x3fd4e668d23c24a3, 0x3fdb002b073625c3} {
		if got := p.ExpFloat64(); math.Float64bits(got) != want {
			t.Fatalf("ExpFloat64 draw %d: %#016x (%.17g), want %#016x", i, math.Float64bits(got), got, want)
		}
	}
	// The arrival family: seed 1's streams for classes 0 and 1. A Poisson
	// class's first draw is its first gap, then each arrival picks a
	// camera and draws the next gap.
	for ci, want := range [][3]uint64{
		{0x02296711dbf22292, 0x6c9bb574390adabb, 0x66b68735d5c595da},
		{0xb955d393dbbaf6e8, 0x38906f3317c36e1b, 0x88be4f6ae26bda6d},
	} {
		p := newPRNG(streamSeed(1, seedArrival, ci))
		for i, w := range want {
			if got := p.Uint64(); got != w {
				t.Fatalf("arrival stream of class %d draw %d: %#016x, want %#016x", ci, i, got, w)
			}
		}
	}
	// Intn draws every shuffle and leaver pick; Intn(1) still advances
	// the stream.
	p = newPRNG(42)
	for i, tc := range []struct{ n, want int }{{1, 0}, {2, 1}, {7, 0}, {1000, 764}, {1 << 30, 608707570}} {
		if got := p.Intn(tc.n); got != tc.want {
			t.Fatalf("Intn(%d) draw %d: %d, want %d", tc.n, i, got, tc.want)
		}
	}
}

func TestPRNGDistributionsInRange(t *testing.T) {
	p := newPRNG(7)
	for i := 0; i < 10_000; i++ {
		if f := p.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		if e := p.ExpFloat64(); e < 0 || math.IsInf(e, 0) || math.IsNaN(e) {
			t.Fatalf("ExpFloat64 invalid: %v", e)
		}
		if n := p.Intn(7); n < 0 || n >= 7 {
			t.Fatalf("Intn(7) out of range: %d", n)
		}
	}
	mean := 0.0
	const draws = 200_000
	for i := 0; i < draws; i++ {
		mean += p.ExpFloat64()
	}
	mean /= draws
	if mean < 0.99 || mean > 1.01 {
		t.Fatalf("ExpFloat64 mean %v far from 1", mean)
	}
}

func TestPRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	p := newPRNG(1)
	p.Intn(0)
}

// TestPRNGPeekIntn pins the peek a Poisson arrival names its camera by:
// it returns what the next Intn(n) returns and leaves the stream where it
// was, however often it is taken.
func TestPRNGPeekIntn(t *testing.T) {
	p := newPRNG(42)
	for i, n := range []int{1, 2, 7, 1000, 1 << 30, 3, 3} {
		before := p
		got, again := p.PeekIntn(n), p.PeekIntn(n)
		if p != before {
			t.Fatalf("draw %d: PeekIntn(%d) moved the state from %#x to %#x", i, n, before.state, p.state)
		}
		if want := p.Intn(n); got != want || again != want {
			t.Fatalf("draw %d: PeekIntn(%d) read %d then %d, the next Intn %d", i, n, got, again, want)
		}
	}
}
