package fleet

import (
	"slices"
	"strings"
	"testing"

	"camsim/internal/core"
	"camsim/internal/fleet/quantile"
)

// twoTierScenario is a small hand-built tiered scenario: one adaptive
// class behind a gateway plus a flat class attached straight to the WAN.
func twoTierScenario(seed int64, kind string, start int) Scenario {
	return Scenario{
		Name:     "test-2tier",
		Seed:     seed,
		Duration: 6,
		Uplink:   UplinkConfig{Gbps: 0.1, Contention: ContentionFairShare},
		Gateways: []Gateway{
			{Name: "edge", Uplink: UplinkConfig{Gbps: 0.05, Contention: ContentionFairShare}},
		},
		Classes: []Class{
			{
				// At "raw" the 8 cameras demand 16 MB/s of a 6.25 MB/s edge
				// link (2.5x oversubscribed — congested but still draining);
				// at "edge-lite" they fit with a ~40 ms offload latency.
				Name: "adaptive", Count: 8, FPS: 10, Arrival: ArrivalPeriodic,
				Gateway: "edge", QueueDepth: 3,
				CaptureJ: 1e-3, TxFixedJ: 1e-4, TxPerByteJ: 4e-8,
				Placements: []PlacementCost{
					{Name: "raw", FrameBytes: 200_000, ComputeSeconds: 0.001, ComputeJ: 2e-3},
					{Name: "edge-lite", FrameBytes: 20_000, ComputeSeconds: 0.03, ComputeJ: 0.3},
				},
				Policy: PolicyConfig{
					Kind: kind, IntervalSec: 0.5, HighSec: 0.5, LowSec: 0.1,
					MoveFraction: 0.5, Start: start,
				},
			},
			{
				Name: "direct", Count: 20, FPS: 2, Arrival: ArrivalPoisson,
				FrameBytes: 1_000, OffloadProb: 0.8, ComputeSeconds: 0.005,
				CaptureJ: 3e-6, ComputeJ: 1e-6, TxFixedJ: 2e-6, TxPerByteJ: 5e-10,
			},
		},
	}
}

func TestTieredTopologyRunsAndReportsTiers(t *testing.T) {
	res, err := Run(twoTierScenario(3, PolicyStatic, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tiers) != 2 {
		t.Fatalf("expected 2 tiers, got %+v", res.Tiers)
	}
	if res.Tiers[0].Name != "edge" || res.Tiers[1].Name != "wan" {
		t.Fatalf("tier order wrong: %+v", res.Tiers)
	}
	// Everything the gateway serves crosses the WAN too, and only the
	// direct class bypasses the gateway, so WAN bytes ≥ gateway bytes.
	if res.Tiers[1].ServedBytes < res.Tiers[0].ServedBytes {
		t.Fatalf("WAN served %v < gateway served %v", res.Tiers[1].ServedBytes, res.Tiers[0].ServedBytes)
	}
	if res.UplinkUtilization != res.Tiers[1].Utilization {
		t.Fatalf("UplinkUtilization %v != WAN tier %v", res.UplinkUtilization, res.Tiers[1].Utilization)
	}
	for _, ti := range res.Tiers {
		if ti.Utilization < 0 || ti.Utilization > 1+1e-9 {
			t.Fatalf("tier %s utilization %v outside [0,1]", ti.Name, ti.Utilization)
		}
	}
	// Offload accounting still conserves through two hops.
	s := res.Classes[0]
	if s.Offloaded+s.DroppedQueue+s.DroppedEnergy != s.Captured {
		t.Fatalf("two-hop accounting leak: %+v", s)
	}
	if s.Switches != 0 || res.Classes[0].PlacementCounts[0] != 8 {
		t.Fatalf("static policy moved cameras: %+v", s)
	}
}

func TestFlatScenarioHasSingleWANTier(t *testing.T) {
	res, err := Run(mixedScenario(42, ContentionFairShare))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tiers) != 1 || res.Tiers[0].Name != "wan" {
		t.Fatalf("flat scenario tiers: %+v", res.Tiers)
	}
	if res.UplinkUtilization != res.Tiers[0].Utilization {
		t.Fatalf("utilization mismatch: %v vs %v", res.UplinkUtilization, res.Tiers[0].Utilization)
	}
	// The flat table keeps its original shape: no tier block is rendered
	// for a single-link scenario.
	if strings.Contains(res.Table(), "tier ") {
		t.Fatalf("flat table grew a tier block:\n%s", res.Table())
	}
}

func TestLatencyThresholdEscalatesUnderCongestion(t *testing.T) {
	static, err := Run(twoTierScenario(3, PolicyStatic, 0))
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Run(twoTierScenario(3, PolicyLatencyThreshold, 0))
	if err != nil {
		t.Fatal(err)
	}
	as := adaptive.Classes[0]
	if as.Switches == 0 {
		t.Fatalf("congested threshold policy never moved a camera: %+v", as)
	}
	if got := as.PlacementCounts[1]; got != 8 {
		t.Fatalf("expected all 8 cameras at the in-camera placement, got %v", as.PlacementCounts)
	}
	if as.LatencyP95 >= static.Classes[0].LatencyP95 {
		t.Fatalf("adaptive p95 %v not below static p95 %v", as.LatencyP95, static.Classes[0].LatencyP95)
	}
}

func TestHysteresisMovesBothDirections(t *testing.T) {
	// Start fully at the cheap in-camera placement on an idle network: the
	// controller steps cameras back toward raw offload, congests the edge
	// link, and must then escalate back. Both directions show up as more
	// total moves than a one-way migration could produce.
	res, err := Run(twoTierScenario(3, PolicyHysteresis, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Classes[0]
	if s.Switches == 0 {
		t.Fatalf("hysteresis never moved: %+v", s)
	}
	if s.Switches <= 8 {
		t.Fatalf("expected moves in both directions (> 8 total), got %d", s.Switches)
	}
	if res.Total.Switches != s.Switches {
		t.Fatalf("Total.Switches %d != class switches %d", res.Total.Switches, s.Switches)
	}
}

// TestControllerReadsCongestionDrops runs the drops a decision sees end
// to end. Each class is tabled under a latency-threshold policy whose
// HighSec no completion reaches, and its queues are deep enough never to
// drop, so only the drops under test can move it. Outage drops are
// congestion: a class whose attach tier fails mid-run moves, and without
// the outage it holds. Energy drops are not: a harvesting class that
// loses frames only to an empty store holds.
func TestControllerReadsCongestionDrops(t *testing.T) {
	class := func(name, tier string) Class {
		return Class{Name: name, Count: 10, FPS: 10, Arrival: ArrivalPoisson, Tier: tier, QueueDepth: 32,
			Placements: []PlacementCost{{Name: "raw", FrameBytes: 13_000}, {Name: "cam", FrameBytes: 1_000}},
			Policy:     PolicyConfig{Kind: PolicyLatencyThreshold, IntervalSec: 0.1, HighSec: 10, MoveFraction: 0.3}}
	}
	tiers := []Tier{
		{Name: "gw", Parent: "core", Uplink: UplinkConfig{Gbps: 0.01}},
		{Name: "spare", Parent: "core", Uplink: UplinkConfig{Gbps: 0.01}},
		{Name: "core", Uplink: UplinkConfig{Gbps: 1}},
	}
	// The raw row loads gw's uplink just past capacity, so the outage,
	// between two decision ticks, catches a backlog in flight there; the
	// class re-homes to spare until gw recovers.
	outage := Scenario{Name: "outage", Seed: 2, Duration: 4, Tiers: tiers,
		Classes: []Class{class("cams", "gw")},
		Dynamics: &DynamicsConfig{Events: []FleetEvent{
			{Time: 1.03, Kind: DynTierOutage, Tier: "gw", Fallback: "spare"},
			{Time: 2, Kind: DynTierRecover, Tier: "gw"},
		}}}
	calm := outage
	calm.Dynamics = nil
	solar := class("solar", "spare")
	solar.CaptureJ, solar.HarvestW, solar.StoreJ = 1e-3, 2e-3, 1e-2
	starved := Scenario{Name: "starved", Seed: 2, Duration: 4, Tiers: tiers, Classes: []Class{solar}}

	for _, tc := range []struct {
		name  string
		sc    Scenario
		moves bool
	}{{"outage", outage, true}, {"calm", calm, false}, {"starved", starved, false}} {
		res, err := Run(tc.sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := res.Classes[0]
		if s.DroppedQueue != 0 || s.LatencyP95 >= 10 {
			t.Fatalf("%s: congested by more than the drops under test: %d queue drops, p95 %v", tc.name, s.DroppedQueue, s.LatencyP95)
		}
		if (s.Switches > 0) != tc.moves {
			t.Errorf("%s: %d moves on %d outage and %d energy drops, want moves %v",
				tc.name, s.Switches, s.DroppedOutage, s.DroppedEnergy, tc.moves)
		}
	}
}

func TestTopologyDemoLatencyThresholdBeatsStatic(t *testing.T) {
	// The acceptance scenario: a congested two-gateway fleet where the
	// latency-threshold policy shifts the VR cameras toward in-camera
	// compute, with strictly lower p95 offload latency than static — and
	// byte-identical reproduction per seed.
	run := func(policy string) *Result {
		sc, err := TopologyDemoScenario(1, policy)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static, adaptive := run(PolicyStatic), run(PolicyLatencyThreshold)
	for _, i := range []int{0, 2} { // the two VR classes
		sp, ap := static.Classes[i], adaptive.Classes[i]
		if ap.LatencyP95 >= sp.LatencyP95 {
			t.Fatalf("%s: adaptive p95 %v not strictly below static %v", ap.Name, ap.LatencyP95, sp.LatencyP95)
		}
		if ap.Switches == 0 || ap.PlacementCounts[len(ap.PlacementCounts)-1] == 0 {
			t.Fatalf("%s: no cameras shifted in-camera: %+v", ap.Name, ap)
		}
	}
	again := run(PolicyLatencyThreshold)
	if adaptive.Table() != again.Table() {
		t.Fatalf("same seed produced different tables:\n%s\nvs\n%s", adaptive.Table(), again.Table())
	}
}

func TestTopologyValidation(t *testing.T) {
	base := twoTierScenario(1, PolicyStatic, 0)

	bad := base
	bad.Classes = append([]Class(nil), base.Classes...)
	bad.Classes[0].Gateway = "nonexistent"
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted a class on an unknown gateway")
	}

	bad = base
	bad.Gateways = []Gateway{
		{Name: "edge", Uplink: UplinkConfig{Gbps: 1}},
		{Name: "edge", Uplink: UplinkConfig{Gbps: 1}},
	}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted duplicate gateway names")
	}

	bad = base
	bad.Gateways = []Gateway{{Name: "edge", Uplink: UplinkConfig{Gbps: -1}}}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted a negative-capacity gateway link")
	}

	bad = base
	bad.Classes = append([]Class(nil), base.Classes...)
	bad.Classes[0].Policy.Kind = "oracle"
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted an unknown policy kind")
	}

	bad = base
	bad.Classes = append([]Class(nil), base.Classes...)
	bad.Classes[0].Policy.Start = 7
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted a start index outside the placements table")
	}

	bad = base
	bad.Classes = append([]Class(nil), base.Classes...)
	bad.Classes[0].Placements = nil
	bad.Classes[0].Policy = PolicyConfig{Kind: PolicyLatencyThreshold, HighSec: 1}
	bad.Classes[0].FrameBytes = 100
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted an adaptive policy without a placements table")
	}

	bad = base
	bad.Classes = append([]Class(nil), base.Classes...)
	bad.Classes[0].Policy = PolicyConfig{Kind: PolicyLatencyThreshold}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted a threshold policy without high_sec")
	}
}

func TestVRAdaptiveClassOrdersCostTable(t *testing.T) {
	pls := []core.Placement{
		{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}},
		{}, // raw — given out of order on purpose
	}
	cl, err := VRAdaptiveClass(3, pls, 30, PolicyConfig{Kind: PolicyStatic})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Placements) != 2 {
		t.Fatalf("placements: %+v", cl.Placements)
	}
	if cl.Placements[0].FrameBytes <= cl.Placements[1].FrameBytes {
		t.Fatalf("table not ordered most-offload first: %+v", cl.Placements)
	}
	if cl.Placements[0].Name != "S~" {
		t.Fatalf("raw placement label %q", cl.Placements[0].Name)
	}
	// The rows must agree with the core cost hook they were built from.
	p := PaperVRPipeline()
	cost, err := p.Cost(pls[0])
	if err != nil {
		t.Fatal(err)
	}
	if cl.Placements[1].FrameBytes != cost.OffloadBytes || cl.Placements[1].ComputeSeconds != cost.ComputeSeconds {
		t.Fatalf("placement row diverges from core cost table: %+v vs %+v", cl.Placements[1], cost)
	}
	if _, err := VRAdaptiveClass(1, nil, 30, PolicyConfig{}); err == nil {
		t.Fatal("accepted an empty placement list")
	}
}

// TestSharedLogReadsEachWatchersOwnSamples feeds one class's log to two
// watchers on crossing decision periods and checks every decision's
// count, p95 and drops against what that watcher alone saw. Selection
// reorders the values it reads, so a decision must move no value across
// the other watcher's start; and after each decision the log holds only
// what a watcher has still to read.
func TestSharedLogReadsEachWatchersOwnSamples(t *testing.T) {
	l := latLog{watchers: 2}
	var st ClassStats
	var own [2][]float64
	var drops [2]int64
	period := [2]float64{0.3, 1.0}
	next := period
	rng := newPRNG(1)
	decisions := 0
	for step := 1; step <= 20_000; step++ {
		now := float64(step) * 0.0005
		for range rng.Intn(3) {
			x := rng.Float64()
			l.lat = append(l.lat, x)
			own[0], own[1] = append(own[0], x), append(own[1], x)
		}
		if rng.Intn(50) == 0 {
			st.DroppedQueue++
			drops[0]++
			drops[1]++
		}
		for k := range next {
			if now < next[k] {
				continue
			}
			next[k] += period[k]
			n, p95, d := l.consume(k, &st)
			want := slices.Sorted(slices.Values(own[k]))
			if n != len(want) || p95 != quantile.NearestRank(want, 0.95) || d != drops[k] {
				t.Fatalf("watcher %d at %.4fs: read n %d, p95 %v, drops %d; its own samples give %d, %v, %d",
					k, now, n, p95, d, len(want), quantile.NearestRank(want, 0.95), drops[k])
			}
			own[k], drops[k] = own[k][:0], 0
			if other := len(own[1-k]); len(l.lat) != other {
				t.Fatalf("watcher %d at %.4fs: the log holds %d latencies, the other watcher has %d to read", k, now, len(l.lat), other)
			}
			decisions++
		}
	}
	if decisions < 40 {
		t.Fatalf("only %d decisions", decisions)
	}
}
