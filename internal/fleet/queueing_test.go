package fleet

import (
	"math"
	"testing"
)

// TestQueueingTheory checks the loaded, random regime fleet runs live in
// against closed forms. One Poisson class feeds one link, with a
// per-camera queue bound no run reaches, so the link is an M/G/1 queue
// with deterministic service S (every frame is the same size):
//
//   - a FIFO link is M/D/1, whose mean sojourn is S + ρS/(2(1−ρ))
//     (Pollaczek–Khinchine);
//   - a fair-share link is M/G/1-PS, whose mean sojourn is S/(1−ρ) for
//     any service distribution.
//
// Each point runs fixed seeds, so the verdict is deterministic. Each run
// is compared with the formula at its own realized load — the frames it
// captured times S over its duration — because near saturation the
// formula moves much faster than the load's sampling error. The mean
// difference over seeds must lie within 4 standard errors of zero.
// Trees of links and core pools are not checked here.
func TestQueueingTheory(t *testing.T) {
	const (
		cams     = 100
		bytes    = 1e6 // 1 ms of service on the 8 Gb/s link
		duration = 60.0
		seeds    = 8
	)
	svc := bytes / UplinkConfig{Gbps: 8}.BytesPerSecond()
	for _, tc := range []struct {
		contention string
		rho        float64
		sojourn    func(rho float64) float64
	}{
		{ContentionFIFO, 0.8, mD1},
		{ContentionFIFO, 0.9, mD1},
		{ContentionFairShare, 0.8, mG1PS},
		{ContentionFairShare, 0.9, mG1PS},
	} {
		var sum, sumSq float64
		for seed := int64(1); seed <= seeds; seed++ {
			sc := Scenario{
				Name: "queueing-" + tc.contention, Seed: seed, Duration: duration,
				Uplink: UplinkConfig{Gbps: 8, Contention: tc.contention},
				Classes: []Class{{Name: "cams", Count: cams, FPS: tc.rho / svc / cams,
					Arrival: ArrivalPoisson, FrameBytes: bytes, QueueDepth: 1 << 20}},
			}
			e, err := newEngine(sc)
			if err != nil {
				t.Fatal(err)
			}
			e.loop()
			st := e.result().Classes[0]
			if st.Offloaded != st.Captured {
				t.Fatalf("%s ρ=%.1f seed %d: %d of %d frames offloaded; the queue bound bound", tc.contention, tc.rho, seed, st.Offloaded, st.Captured)
			}
			mean := 0.0
			for _, lat := range e.acc.(exactLatencies)[0] {
				mean += lat
			}
			mean /= float64(st.Offloaded)
			rho := float64(st.Captured) * svc / duration
			d := (mean - tc.sojourn(rho)*svc) / svc
			sum += d
			sumSq += d * d
		}
		mean := sum / seeds
		se := math.Sqrt((sumSq - seeds*mean*mean) / (seeds - 1) / seeds)
		if z := mean / se; math.Abs(z) > 4 {
			t.Errorf("%s ρ=%.1f: mean sojourn off the formula by %+.3f service times (z %.2f)", tc.contention, tc.rho, mean, z)
		} else {
			t.Logf("%s ρ=%.1f: off the formula by %+.4f ± %.4f service times (z %.2f)", tc.contention, tc.rho, mean, se, z)
		}
	}
}

// mD1 and mG1PS are the mean sojourns, in service times, of an M/D/1
// queue and of an M/G/1 processor-sharing queue at load rho.
func mD1(rho float64) float64   { return 1 + rho/(2*(1-rho)) }
func mG1PS(rho float64) float64 { return 1 / (1 - rho) }
