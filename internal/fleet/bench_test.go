package fleet

import (
	"fmt"
	"math"
	"testing"

	"camsim/internal/fleet/queue"
)

// deepFleetScenario spreads cams cameras across 32 leaf gateways feeding 8
// metro tiers and one core link (41 links in all) — the 10k-camera
// deep-topology stress shape. Simple fixed-payload classes keep the event
// loop itself the measured quantity.
func deepFleetScenario(cams int) Scenario {
	sc := Scenario{
		Name:     fmt.Sprintf("deep-bench-%d", cams),
		Seed:     1,
		Duration: 4,
	}
	const gws, metros = 32, 8
	for m := 1; m <= metros; m++ {
		sc.Tiers = append(sc.Tiers, Tier{
			Name:           fmt.Sprintf("metro-%d", m),
			Parent:         "core",
			Uplink:         UplinkConfig{Gbps: 4, Contention: ContentionFairShare},
			PropagationSec: 0.002,
		})
	}
	sc.Tiers = append(sc.Tiers, Tier{
		Name:           "core",
		Uplink:         UplinkConfig{Gbps: 8, Contention: ContentionFairShare},
		PropagationSec: 0.01,
	})
	per := cams / gws
	for g := 0; g < gws; g++ {
		name := fmt.Sprintf("gw-%d", g)
		sc.Tiers = append(sc.Tiers, Tier{
			Name:           name,
			Parent:         fmt.Sprintf("metro-%d", g%metros+1),
			Uplink:         UplinkConfig{Gbps: 2, Contention: ContentionFairShare},
			PropagationSec: 0.0002,
		})
		sc.Classes = append(sc.Classes, Class{
			Name: "cams-" + name, Count: per, FPS: 2, Arrival: ArrivalPoisson,
			Tier: name, FrameBytes: 4000, OffloadProb: 1, ComputeSeconds: 0.005,
			QueueDepth: 4, CaptureJ: 1e-4, ComputeJ: 1e-4, TxFixedJ: 1e-5, TxPerByteJ: 1e-9,
		})
	}
	return sc
}

// BenchmarkDeepTopology measures one full 10k-camera deep-topology run
// per iteration. Baseline numbers live in BENCH_topology.json at the repo
// root.
func BenchmarkDeepTopology(b *testing.B) {
	sc := deepFleetScenario(10_000)
	b.ReportAllocs()
	b.ResetTimer() // the baseline counts runs only, not building sc
	var frames int64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		frames += res.Total.Captured
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/run")
}

// BenchmarkHugeFleet is the 100k-camera scale point: the same 41-link
// deep topology with 10× the population over a shorter horizon, so one
// iteration is a full run at the fleet size the ROADMAP targets. The
// alloc counters are the regression surface — steady-state stepping is
// designed to be allocation-free (boxing-free heaps, value-embedded
// per-camera PRNGs, transfer free-list, preallocated event heap and
// latency slices), so allocs/op stays proportional to the camera count,
// not the frame count. Baselines live in BENCH_topology.json and are
// gated by cmd/benchgate in CI.
func BenchmarkHugeFleet(b *testing.B) {
	sc := deepFleetScenario(100_000)
	sc.Duration = 1
	b.ReportAllocs()
	var frames int64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		frames += res.Total.Captured
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/run")
}

// BenchmarkLongHorizon is the streaming-telemetry memory proof: the
// 100k-camera deep topology simulated 8× longer than BenchmarkHugeFleet,
// with per-class latency landing in KLL sketches and a 1s window time
// series instead of exact per-sample slices. On the exact path B/op
// grows with the horizon (the latency slices are preallocated from the
// expected frame count: ~78 MB at this duration, and climbing); here
// the sketches are bounded and window sketches are reset in place, so
// B/op is flat in the frame count — doubling the duration again moves
// it by under 2% — and the ceiling cmd/benchgate gates in CI against
// BENCH_topology.json proves it stays that way.
func BenchmarkLongHorizon(b *testing.B) {
	sc := deepFleetScenario(100_000)
	sc.Duration = 8
	sc.Telemetry = &TelemetryConfig{Streaming: true, WindowSec: 1}
	b.ReportAllocs()
	var frames int64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		frames += res.Total.Captured
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/run")
}

// BenchmarkFederatedRound measures the bidirectional path: one full run of
// the federated demo fleet per iteration — 48 cameras pushing per-round
// update blobs up through two gateways while the merged model broadcasts
// back down the tier downlinks, interleaved with the ordinary frame
// traffic. The FL engine is pure accounting, so the cost to watch is the
// extra link events; the alloc counters catch any per-round bookkeeping
// leaking into the hot loop. Baselines live in BENCH_topology.json and
// are gated by cmd/benchgate in CI.
func BenchmarkFederatedRound(b *testing.B) {
	sc := FederatedDemoScenario(1)
	b.ReportAllocs()
	var rounds int64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		rounds += int64(len(res.Federated.PerRound))
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/run")
}

// BenchmarkChurnFleet prices the fleet-dynamics path: the 10k-camera
// deep topology under a live fault schedule — recurring join and leave
// entries churning two gateway populations for the whole run, plus one
// gateway outage (with re-homing onto a sibling leaf) and recovery.
// Joins append cameras and leaves swap-remove them, so the cost to
// watch is churn bookkeeping against the flat per-camera state; the
// outage exercises the drain/re-home path at scale. The alloc counters
// are the regression surface: the camera structures are sized for the
// joiners before the run, so neither a join nor any other firing
// allocates. Baselines live in BENCH_topology.json and are gated by
// cmd/benchgate in CI.
func BenchmarkChurnFleet(b *testing.B) {
	sc := churnFleetScenario()
	b.ReportAllocs()
	var churn int64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		churn += res.Dynamics.Joined + res.Dynamics.Left
	}
	b.ReportMetric(float64(churn)/float64(b.N), "churn/run")
}

// churnFleetScenario is BenchmarkChurnFleet's scenario.
func churnFleetScenario() Scenario {
	sc := deepFleetScenario(10_000)
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 0.2, Kind: DynCameraJoin, Class: "cams-gw-0", Count: 8, EverySec: 0.1},
		{Time: 0.3, Kind: DynCameraLeave, Class: "cams-gw-1", Count: 8, EverySec: 0.1},
		{Time: 1.5, Kind: DynTierOutage, Tier: "gw-2", Fallback: "gw-10"},
		{Time: 2.5, Kind: DynTierRecover, Tier: "gw-2"},
	}}
	return sc
}

// BenchmarkPeriodicFleet prices the periodic capture path at scale: the
// deep topology with 30k periodic cameras, each of its 32 classes
// stepped by an fps_profile every 0.1 s along a diurnal curve of its own
// phase, so every class's capture clock moves about 40 times a run. It is
// the one gated fleet benchmark whose captures are periodic. The alloc
// counters are the regression surface: the per-class capture rings are
// sized before the run, so no capture and no rate step allocates.
// Baselines live in BENCH_topology.json and are gated by cmd/benchgate in
// CI.
func BenchmarkPeriodicFleet(b *testing.B) {
	sc := periodicFleetScenario()
	b.ReportAllocs()
	b.ResetTimer() // the baseline counts runs only, not building sc
	var frames int64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		frames += res.Total.Captured
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/run")
}

// periodicFleetScenario is BenchmarkPeriodicFleet's scenario.
func periodicFleetScenario() Scenario {
	sc := deepFleetScenario(30_000)
	sc.Dynamics = &DynamicsConfig{}
	for ci := range sc.Classes {
		sc.Classes[ci].Arrival = ArrivalPeriodic
	}
	for k := 1; float64(k)*0.1 < sc.Duration; k++ {
		at := float64(k) * 0.1
		for ci, c := range sc.Classes {
			sc.Dynamics.Events = append(sc.Dynamics.Events, FleetEvent{Time: at, Kind: DynFPSProfile, Class: c.Name,
				Multiplier: 1 + 0.25*math.Sin(2*math.Pi*at/sc.Duration+float64(ci))})
		}
	}
	return sc
}

// BenchmarkComputeTiers prices the finite-core-pool path: the 10k-camera
// deep topology with a compute section on all 41 tiers, sized so every
// pool runs near 80% utilization — each frame queues for service at
// three pools (gateway, metro, core) on top of its link transits, with
// the gateways on egalitarian fair-share and the upper tiers on FIFO so
// both service heaps are in the hot loop. The alloc counters are the
// regression surface: pool stepping reuses the same free-listed transfer
// records the links do, so allocs/op must not grow with the frame count.
// Baselines live in BENCH_topology.json and are gated by cmd/benchgate
// in CI.
func BenchmarkComputeTiers(b *testing.B) {
	sc := deepFleetScenario(10_000)
	// 625 offered fps per gateway × 5 ms service = 3.125 core-sec/s.
	for i := range sc.Tiers {
		t := &sc.Tiers[i]
		switch {
		case t.Name == "core":
			t.Compute = &ComputeConfig{Cores: 128, ServiceRateFPS: 200}
		case len(t.Name) > 5 && t.Name[:5] == "metro":
			t.Compute = &ComputeConfig{Cores: 16, ServiceRateFPS: 200}
		default:
			t.Compute = &ComputeConfig{Cores: 4, ServiceRateFPS: 200,
				Discipline: ContentionFairShare}
		}
	}
	b.ReportAllocs()
	var busy float64
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, ts := range res.Tiers {
			if ts.Compute != nil {
				busy += ts.Compute.BusySec
			}
		}
	}
	b.ReportMetric(busy/float64(b.N), "core-sec/run")
}

// BenchmarkExactQuantiles prices the exact path's percentiles alone, at
// huge-fleet's shape: 32 classes of 6,250 latencies each, every class's
// p50, p95 and p99 and the fleet total's. Selection reorders the samples
// in place, so each op restores their arrival order off the timer. B/op
// must not grow with the sample count: the fleet total is selected
// across the class slices, not from a copy of them all.
func BenchmarkExactQuantiles(b *testing.B) {
	const classes, perClass = 32, 6250
	rng := newPRNG(5)
	x := make(exactLatencies, classes)
	arrival := make([][]float64, classes)
	for c := range arrival {
		arrival[c] = make([]float64, perClass)
		for i := range arrival[c] {
			// Huge-fleet's latencies: a fixed path delay plus queueing.
			arrival[c][i] = 0.0172 + 0.0005*rng.ExpFloat64()
		}
		x[c] = make([]float64, perClass)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for c := range arrival {
			copy(x[c], arrival[c])
		}
		b.StartTimer()
		x.quantiles()
	}
}

// BenchmarkEventHeap prices the event queue alone under the hold model,
// the event loop's steady state: with n events resident, each step pops
// the minimum and pushes it back an exponential gap later. One op is
// holdBatch steps, so even CI's -benchtime=3x times thousands of them;
// ns/pop+push reports the cost of one step. Gaps in the timed loop cycle
// through a small table drawn ahead of the timer, so neither the PRNG nor
// a growing queue is in the measured loop, and allocs/op must stay 0.
// Baselines live in BENCH_topology.json and are gated by cmd/benchgate
// in CI. The 10k, 100k and 1M variants hold one event per resident on a
// queue.Heap, the schedule before owner keys, with the resident events
// labelled control ticks.
//
// The two chain variants add a frame's fixed-delay stages at huge-fleet's
// proportions: 100k cameras, each capturing a mean 0.5 s after its last
// capture and each capture starting a four-stage chain (in-camera
// compute, then gateway, metro and core propagation: 5, 0.2, 2 and 10
// ms). 100k-chain-heap pushes every capture and stage on one heap, the
// schedule before delay lines and arrival streams; 100k-chain-lines keys
// the cameras as newEngine keys a 100k-camera Poisson fleet, 32 class
// owners each an arrival stream at its cameras' rate, and files each
// stage on its delay's line. ns/event counts captures and stages alike.
//
// The two periodic variants hold a periodic fleet's captures: 32 classes
// of 937 or 938 cameras (30k in all) at 2 FPS, each capture re-armed one
// period later. 30k-periodic-heap keeps one event per camera on a heap,
// the schedule before capture rings; 30k-periodic-rings keeps each
// class's captures in its ring behind one class key, as newEngine builds
// them. ns/capture reports one step.
func BenchmarkEventHeap(b *testing.B) {
	const holdBatch = 1 << 14
	gapRNG := newPRNG(1)
	gaps := make([]float64, 1<<12)
	for i := range gaps {
		gaps[i] = gapRNG.ExpFloat64()
	}
	gap := func(seq int64) float64 { return gaps[seq&(int64(len(gaps))-1)] }
	// run times holdBatch steps per op and reports one step's cost as unit.
	run := func(b *testing.B, unit string, step func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < holdBatch; k++ {
				step()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/holdBatch, unit)
	}
	// onHeap returns a heap of n events, the i-th at at(i), and a push
	// that numbers each event it adds.
	onHeap := func(n int, at func(i int) float64) (*queue.Heap[evRef], func(t float64, kind int, id, aux int32)) {
		h := make(queue.Heap[evRef], 0, n)
		var seq int64
		push := func(t float64, kind int, id, aux int32) {
			h.Push(queue.Item[evRef](newEvent(t, seq, kind, id, aux)))
			seq++
		}
		for i := 0; i < n; i++ {
			push(at(i), evControl, int32(i), 0)
		}
		return &h, push
	}
	for _, size := range []struct {
		name string
		n    int
	}{{"10k", 10_000}, {"100k", 100_000}, {"1M", 1_000_000}} {
		b.Run(size.name, func(b *testing.B) {
			// Memoryless gaps make n independent exponential offsets the
			// hold model's steady state, so the prefill starts there.
			rng := newPRNG(2)
			h, push := onHeap(size.n, func(int) float64 { return rng.ExpFloat64() })
			seq := int64(size.n)
			run(b, "ns/pop+push", func() {
				ev := event(h.Pop())
				push(ev.T+gap(seq), ev.kind(), ev.P.id, ev.P.aux)
				seq++
			})
		})
	}
	chain := [...]float64{0.005, 0.0002, 0.002, 0.01}
	const cameras, classes = 100_000, 32
	b.Run("100k-chain-heap", func(b *testing.B) {
		rng := newPRNG(2)
		h, push := onHeap(cameras, func(int) float64 { return 0.5 * rng.ExpFloat64() })
		seq := int64(cameras)
		step := func() {
			ev := event(h.Pop())
			switch {
			case ev.kind() == evControl:
				push(ev.T+0.5*gap(seq), evControl, ev.P.id, 0)
				push(ev.T+chain[0], evLand, ev.P.id, 0)
				seq += 2
			case int(ev.P.aux)+1 < len(chain):
				push(ev.T+chain[ev.P.aux+1], evLand, ev.P.id, ev.P.aux+1)
				seq++
			}
		}
		// Warm up past one chain length, so the timed loop starts with
		// the stages' steady population.
		for k := 0; k < 4*holdBatch; k++ {
			step()
		}
		run(b, "ns/event", step)
	})
	b.Run("100k-chain-lines", func(b *testing.B) {
		// Each class's 3,125 cameras, capturing a mean 0.5 s apart each,
		// are one arrival stream at their summed rate.
		const rate = cameras / classes / 0.5
		rng := newPRNG(2)
		h := eventHeap{owners: queue.NewIndex(classes), refs: make([]evRef, classes), horizon: math.Inf(1)}
		var line [len(chain)]int32
		for k, d := range chain {
			line[k] = h.line(d)
		}
		for ci := int32(0); ci < classes; ci++ {
			h.arm(ci, rng.ExpFloat64()/rate, evArrive, ci, 0)
		}
		step := func() {
			ev := h.pop()
			switch {
			case ev.kind() == evArrive:
				h.arm(ev.P.id, ev.T+gap(h.seq)/rate, evArrive, ev.P.id, 0)
				h.file(line[0], ev.T, evLand, ev.P.id, 0)
			case int(ev.P.aux)+1 < len(chain):
				h.file(line[ev.P.aux+1], ev.T, evLand, ev.P.id, ev.P.aux+1)
			}
		}
		// Warm up past one chain length, so the timed loop starts with
		// the lines at their size.
		for k := 0; k < 4*holdBatch; k++ {
			step()
		}
		run(b, "ns/event", step)
	})
	const cams, fps = 30_000, 2.0
	sizes, rates := make([]int, classes), make([]float64, classes)
	for ci := range sizes {
		sizes[ci], rates[ci] = cams/classes, fps
		if ci < cams%classes {
			sizes[ci]++
		}
	}
	b.Run("30k-periodic-heap", func(b *testing.B) {
		rng := newPRNG(2)
		h, push := onHeap(cams, func(int) float64 { return rng.Float64() / fps })
		run(b, "ns/capture", func() {
			ev := event(h.Pop())
			push(ev.T+1/fps, evControl, ev.P.id, ev.P.aux)
		})
	})
	b.Run("30k-periodic-rings", func(b *testing.B) {
		rng := newPRNG(2)
		h := eventHeap{owners: queue.NewIndex(classes), refs: make([]evRef, classes), horizon: math.Inf(1)}
		h.periodic(sizes, rates)
		cam := int32(0)
		for ci, n := range sizes {
			for k := 0; k < n; k++ {
				h.join(ci, 0, rng.Float64(), cam)
				cam++
			}
		}
		h.start()
		run(b, "ns/capture", func() {
			ev := h.pop()
			h.rearm(int(ev.P.aux))
		})
	})
}

// BenchmarkServers prices the links and core pools alone: FIFO and fair
// share, each as a link and as a 4-core pool, with 1, 16 or 256 jobs
// resident. Each step finishes the earliest job and admits a fresh one at
// that instant, so the population holds. One op is serverBatch steps, so
// even CI's -benchtime=1x times a thousand of them; ns/transfer reports
// the cost of one step. Sizes cycle through a table drawn ahead of the
// timer, and allocs/op must stay 0.
func BenchmarkServers(b *testing.B) {
	const serverBatch = 1 << 10
	rng := newPRNG(3)
	sizes := make([]float64, 1<<10)
	for i := range sizes {
		sizes[i] = rng.ExpFloat64()
	}
	for _, model := range []string{ContentionFIFO, ContentionFairShare} {
		for _, shape := range []string{"link", "pool4"} {
			for _, n := range []int{1, 16, 256} {
				b.Run(fmt.Sprintf("%s/%s/%d", model, shape, n), func(b *testing.B) {
					var s Link
					if shape == "link" {
						var err error
						if s, err = NewLink(model, 1); err != nil {
							b.Fatal(err)
						}
					} else {
						s = newComputeServer(&ComputeConfig{Cores: 4, Discipline: model})
					}
					for id := 0; id < n; id++ {
						s.Start(0, id, sizes[id])
					}
					k := n
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := 0; j < serverBatch; j++ {
							t, _ := s.NextFinish()
							s.Start(t, s.Finish(), sizes[k&(len(sizes)-1)])
							k++
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/serverBatch, "ns/transfer")
				})
			}
		}
	}
}

// BenchmarkLinkIndex prices the link-completion index over tier-pools'
// 123 servers: 41 links (a quarter FIFO), 41 fair-share 4-core pools, 40
// FIFO 16-core pools and one FIFO 128-core pool, with 1 or 8 jobs
// resident per server. Each step peeks the earliest completion, finishes
// that job and invalidates its server, then admits a job on a server at
// that instant and invalidates it too, so the population holds. Servers
// and sizes cycle through tables drawn ahead of the timer. One op is
// indexBatch steps; ns/step reports one step, the servers' own Finish and
// Start included, and allocs/op must stay 0. It uses only newLinkIndex,
// invalidate, peek and the server constructors, so it prices any index
// behind that interface.
func BenchmarkLinkIndex(b *testing.B) {
	const indexBatch = 1 << 10
	build := func() []Link {
		var links []Link
		for i := 0; i < 41; i++ {
			model := ContentionFairShare
			if i%4 == 3 {
				model = ContentionFIFO
			}
			l, err := NewLink(model, 1)
			if err != nil {
				b.Fatal(err)
			}
			links = append(links, l)
		}
		for _, p := range []struct {
			n, cores int
			disc     string
		}{{41, 4, ContentionFairShare}, {40, 16, ContentionFIFO}, {1, 128, ContentionFIFO}} {
			for i := 0; i < p.n; i++ {
				links = append(links, newComputeServer(&ComputeConfig{Cores: p.cores, Discipline: p.disc}))
			}
		}
		return links
	}
	rng, n := newPRNG(4), len(build())
	sizes := make([]float64, 1<<10)
	servers := make([]int, len(sizes))
	for i := range sizes {
		sizes[i], servers[i] = rng.ExpFloat64(), rng.Intn(n)
	}
	for _, resident := range []int{1, 8} {
		b.Run(fmt.Sprintf("%d-resident", resident), func(b *testing.B) {
			links := build()
			x := newLinkIndex(links)
			k := 0
			for li, l := range links {
				for j := 0; j < resident; j++ {
					l.Start(0, k, sizes[k&(len(sizes)-1)])
					k++
				}
				x.invalidate(li)
			}
			step := func() {
				li, t, _ := x.peek()
				links[li].Finish()
				x.invalidate(li)
				s := servers[k&(len(servers)-1)]
				links[s].Start(t, k, sizes[k&(len(sizes)-1)])
				x.invalidate(s)
				k++
			}
			// Warm up until the jobs have spread over the servers the
			// admissions draw, and the servers' queues have grown to
			// their peaks.
			for j := 0; j < 64*indexBatch; j++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < indexBatch; j++ {
					step()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/indexBatch, "ns/step")
		})
	}
}
