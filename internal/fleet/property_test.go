package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Property tests over randomized workloads: whatever the arrival pattern,
// both contention disciplines must behave like a physical link — they
// cannot serve more than capacity while busy, and no single transfer can
// receive more than capacity × its time in system. CI runs these under
// -race alongside the rest of the suite.

// uplinkTrace drives one uplink through a random admit/finish sequence and
// checks the conservation invariants event by event.
func uplinkTrace(t *testing.T, model string, rng *rand.Rand) {
	t.Helper()
	capacity := float64(1+rng.Intn(1000)) * 10 // 10..10000 B/s
	up, err := NewLink(model, capacity)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-6

	type admitted struct {
		at    float64
		bytes float64
	}
	open := map[int]admitted{}
	now, busyStart, busyTime := 0.0, 0.0, 0.0
	var sumBytes float64

	// processFinish pops the next completion, as the sim's event loop
	// does, and checks the per-transfer service bound.
	processFinish := func() {
		ft, ok := up.NextFinish()
		if !ok {
			t.Fatalf("%s: %d transfers open but no next finish", model, len(open))
		}
		if ft < now-eps {
			t.Fatalf("%s: finish time %v precedes current time %v", model, ft, now)
		}
		served := up.ServedBytes()
		fid := up.Finish()
		a, ok := open[fid]
		if !ok {
			t.Fatalf("%s: finished unknown transfer %d", model, fid)
		}
		delete(open, fid)
		// Per-transfer service never exceeds capacity: B bytes need at
		// least B/capacity seconds in the system.
		if ft-a.at < a.bytes/capacity-eps {
			t.Fatalf("%s: transfer %d served %v bytes in %v s at capacity %v",
				model, fid, a.bytes, ft-a.at, capacity)
		}
		if got := up.ServedBytes() - served; got != a.bytes {
			t.Fatalf("%s: ServedBytes advanced %v for a %v-byte transfer", model, got, a.bytes)
		}
		if ft > now {
			now = ft
		}
		if len(open) == 0 {
			busyTime += now - busyStart
		}
	}

	n := 20 + rng.Intn(200)
	for id := 0; id < n || len(open) > 0; {
		if id < n && (len(open) == 0 || rng.Float64() < 0.6) {
			// Admit a new transfer: like the event loop, first drain every
			// completion the link delivers before the admission instant
			// (Start must never precede an observed event time).
			tnext := now + rng.ExpFloat64()*0.1
			for {
				ft, ok := up.NextFinish()
				if !ok || ft > tnext {
					break
				}
				processFinish()
			}
			now = tnext
			bytes := float64(1 + rng.Intn(100_000))
			if len(open) == 0 {
				busyStart = now
			}
			up.Start(now, id, bytes)
			open[id] = admitted{at: now, bytes: bytes}
			sumBytes += bytes
			id++
		} else {
			processFinish()
		}
		if up.InFlight() != len(open) {
			t.Fatalf("%s: InFlight %d, expected %d", model, up.InFlight(), len(open))
		}
	}
	// Aggregate conservation: the link cannot serve more than capacity
	// while busy, and everything admitted must have drained.
	if up.ServedBytes() != sumBytes {
		t.Fatalf("%s: served %v of %v admitted bytes", model, up.ServedBytes(), sumBytes)
	}
	if up.ServedBytes() > capacity*busyTime*(1+1e-9)+eps {
		t.Fatalf("%s: served %v bytes in %v busy seconds at capacity %v",
			model, up.ServedBytes(), busyTime, capacity)
	}
}

func TestUplinkPropertyConservation(t *testing.T) {
	for _, model := range []string{ContentionFairShare, ContentionFIFO} {
		t.Run(model, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1234))
			for iter := 0; iter < 150; iter++ {
				uplinkTrace(t, model, rng)
			}
		})
	}
}

// randomScenario builds a random-but-valid scenario with one or two tiers.
func randomScenario(rng *rand.Rand) Scenario {
	sc := Scenario{
		Name:     fmt.Sprintf("prop-%d", rng.Int63()),
		Seed:     rng.Int63n(1 << 30),
		Duration: 0.5 + rng.Float64()*2,
		Uplink: UplinkConfig{
			Gbps:       0.001 + rng.Float64()*0.05,
			Contention: []string{ContentionFairShare, ContentionFIFO}[rng.Intn(2)],
		},
	}
	gateway := ""
	if rng.Intn(2) == 1 {
		gateway = "gw"
		sc.Gateways = []Gateway{{Name: "gw", Uplink: UplinkConfig{
			Gbps:       0.001 + rng.Float64()*0.05,
			Contention: []string{ContentionFairShare, ContentionFIFO}[rng.Intn(2)],
		}}}
	}
	nClasses := 1 + rng.Intn(3)
	for i := 0; i < nClasses; i++ {
		c := Class{
			Name:           fmt.Sprintf("c%d", i),
			Count:          1 + rng.Intn(30),
			FPS:            0.5 + rng.Float64()*20,
			Arrival:        []string{ArrivalPeriodic, ArrivalPoisson}[rng.Intn(2)],
			FrameBytes:     int64(1 + rng.Intn(500_000)),
			OffloadProb:    rng.Float64(),
			ComputeSeconds: rng.Float64() * 0.05,
			QueueDepth:     1 + rng.Intn(6),
			CaptureJ:       rng.Float64() * 1e-3,
			ComputeJ:       rng.Float64() * 1e-3,
		}
		if rng.Intn(2) == 1 {
			c.Gateway = gateway
		}
		if rng.Intn(3) == 0 {
			c.HarvestW = 1e-5 + rng.Float64()*1e-3
			c.StoreJ = 1e-4 + rng.Float64()*0.1
		}
		if rng.Intn(2) == 0 {
			c.Placements = []PlacementCost{
				{Name: "a", FrameBytes: int64(1 + rng.Intn(500_000)), ComputeSeconds: rng.Float64() * 0.01},
				{Name: "b", FrameBytes: int64(1 + rng.Intn(50_000)), ComputeSeconds: rng.Float64() * 0.05},
			}
			c.Policy = PolicyConfig{
				Kind:         []string{PolicyStatic, PolicyLatencyThreshold, PolicyHysteresis, PolicyEnergyLatency}[rng.Intn(4)],
				IntervalSec:  0.1 + rng.Float64()*0.5,
				HighSec:      0.01 + rng.Float64(),
				MoveFraction: rng.Float64()*0.9 + 0.1,
				Start:        rng.Intn(2),
				EnergyWeight: rng.Float64() * 3,
			}
		}
		sc.Classes = append(sc.Classes, c)
	}
	hasTable := false
	for _, c := range sc.Classes {
		if len(c.Placements) > 0 {
			hasTable = true
		}
	}
	if hasTable && rng.Intn(3) == 0 {
		// Sometimes a global budget controller on top, over a wide budget
		// range so both the binding and the slack regimes are exercised.
		sc.Global = &GlobalConfig{
			EpochSec:     0.2 + rng.Float64(),
			BudgetW:      math.Exp(rng.Float64()*12 - 6), // ~2.5 mW .. 400 W
			HighSec:      rng.Float64(),
			MoveFraction: 0.1 + rng.Float64()*0.9,
		}
	}
	return sc
}

func TestRandomScenarioInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		sc := randomScenario(rng)
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("iter %d: %v\nscenario: %+v", iter, err, sc)
		}
		// Every tier respects capacity over the whole run, and the
		// accounting identity holds per class and in total.
		for _, ti := range res.Tiers {
			if ti.Utilization < 0 || ti.Utilization > 1+1e-9 {
				t.Fatalf("iter %d: tier %s utilization %v", iter, ti.Name, ti.Utilization)
			}
		}
		assertConserved(t, fmt.Sprintf("iter %d", iter), res)
		for _, s := range res.Classes {
			if s.DropRate() < 0 || s.DropRate() > 1 {
				t.Fatalf("iter %d: drop rate %v", iter, s.DropRate())
			}
		}
		if res.SimEnd < sc.Duration {
			t.Fatalf("iter %d: SimEnd %v before duration %v", iter, res.SimEnd, sc.Duration)
		}
		// Determinism: the same scenario replays byte-identically.
		again, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table() != again.Table() {
			t.Fatalf("iter %d: nondeterministic result:\n%s\nvs\n%s", iter, res.Table(), again.Table())
		}
	}
}
