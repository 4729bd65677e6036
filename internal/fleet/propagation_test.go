package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// chainScenario is a three-tier chain (gw-a → metro → core) carrying one
// camera whose single frame has an analytically known latency.
func chainScenario() Scenario {
	return Scenario{
		Name:     "chain-analytic",
		Seed:     1,
		Duration: 1, // exactly one periodic frame: phase < 1/FPS = duration
		Tiers: []Tier{
			{Name: "gw-a", Parent: "metro", Uplink: UplinkConfig{Gbps: 8e-3}, PropagationSec: 0.001},
			{Name: "metro", Parent: "core", Uplink: UplinkConfig{Gbps: 16e-3}, PropagationSec: 0.005},
			{Name: "core", Uplink: UplinkConfig{Gbps: 32e-3}, PropagationSec: 0.02},
		},
		Classes: []Class{{
			Name: "cam", Count: 1, FPS: 1, Arrival: ArrivalPeriodic, Tier: "gw-a",
			FrameBytes: 100_000, OffloadProb: 1, ComputeSeconds: 0.01,
		}},
	}
}

func TestPropagationAnalyticSingleTransfer(t *testing.T) {
	// With one transfer and no contention, capture-to-cloud latency is the
	// in-camera compute plus, per hop, transmission at that link's full
	// capacity plus its one-way propagation delay:
	//   0.01 + (1e5/1e6 + 0.001) + (1e5/2e6 + 0.005) + (1e5/4e6 + 0.02)
	const want = 0.01 + (0.1 + 0.001) + (0.05 + 0.005) + (0.025 + 0.02)
	res, err := Run(chainScenario())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Classes[0]
	if s.Captured != 1 || s.Offloaded != 1 {
		t.Fatalf("expected exactly one offloaded frame, got %+v", s)
	}
	if math.Abs(s.LatencyP50-want) > 1e-9 {
		t.Fatalf("latency %v, want %v (per-hop tx + propagation)", s.LatencyP50, want)
	}
	if len(res.Tiers) != 3 {
		t.Fatalf("tiers: %+v", res.Tiers)
	}
	for _, ti := range res.Tiers {
		if ti.ServedBytes != 100_000 || ti.Transfers != 1 {
			t.Fatalf("tier %s served %v bytes in %d transfers, want the one frame",
				ti.Name, ti.ServedBytes, ti.Transfers)
		}
		if got := ti.PropDelayTotal(); got != ti.PropagationSec {
			t.Fatalf("tier %s hop-delay total %v, want %v for one transfer", ti.Name, got, ti.PropagationSec)
		}
	}
	wantDepths := map[string]int{"gw-a": 2, "metro": 1, "core": 0}
	for _, ti := range res.Tiers {
		if ti.Depth != wantDepths[ti.Name] {
			t.Fatalf("tier %s depth %d, want %d", ti.Name, ti.Depth, wantDepths[ti.Name])
		}
	}
	if rt := res.TierNamed("core"); rt == nil || res.UplinkUtilization != rt.Utilization {
		t.Fatalf("UplinkUtilization %v does not reference the root tier %+v", res.UplinkUtilization, rt)
	}
}

func TestZeroPropagationTiersMatchLegacyGateways(t *testing.T) {
	// A depth-2 tier tree with zero propagation is the same machine as the
	// legacy gateways form: identical names must yield byte-identical
	// tables (same event order, same per-tier stats).
	legacy := twoTierScenario(3, PolicyLatencyThreshold, 0)
	tree := legacy
	tree.Gateways = nil
	tree.Tiers = []Tier{
		{Name: "edge", Parent: "wan", Uplink: UplinkConfig{Gbps: 0.05, Contention: ContentionFairShare}},
		{Name: "wan", Uplink: UplinkConfig{Gbps: 0.1, Contention: ContentionFairShare}},
	}
	a, err := Run(legacy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tree)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table() != b.Table() {
		t.Fatalf("tiers form diverged from gateways form:\n%s\nvs\n%s", a.Table(), b.Table())
	}

	// The flat form is the one-tier tree rooted at "wan".
	flat := mixedScenario(3, ContentionFIFO)
	oneTier := flat
	oneTier.Uplink = UplinkConfig{}
	oneTier.Tiers = []Tier{{Name: "wan", Uplink: flat.Uplink}}
	a, err = Run(flat)
	if err != nil {
		t.Fatal(err)
	}
	b, err = Run(oneTier)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table() != b.Table() {
		t.Fatalf("one-tier tree diverged from flat form:\n%s\nvs\n%s", a.Table(), b.Table())
	}

	// Normalize's rewrite is exactly the hand-written tree: the gateways
	// as leaves under "wan" in declaration order, the root last, and each
	// class attached by tier.
	rewritten, err := ParseScenario([]byte(twoGatewaySeed))
	if err != nil {
		t.Fatal(err)
	}
	handWritten, err := ParseScenario([]byte(`{
	  "name": "two-gw", "seed": 7, "duration_sec": 8,
	  "tiers": [
	    {"name": "gw-a", "parent": "wan", "uplink": {"gbps": 2, "contention": "fair-share"}},
	    {"name": "gw-b", "parent": "wan", "uplink": {"gbps": 2, "contention": "fifo"}},
	    {"name": "wan", "uplink": {"gbps": 4, "contention": "fair-share"}}
	  ],
	  "classes": [
	    {"name": "vr-a", "count": 4, "fps": 30, "tier": "gw-a",
	     "capture_j": 5e-3, "tx_fixed_j": 1e-4, "tx_per_byte_j": 4e-8,
	     "placements": [
	       {"name": "S~", "frame_bytes": 12361551, "compute_sec": 0.0001},
	       {"name": "full", "frame_bytes": 1122000, "compute_sec": 0.0316, "compute_j": 0.316}
	     ],
	     "policy": {"kind": "latency-threshold", "interval_sec": 0.5,
	                "high_sec": 0.2, "move_fraction": 0.5}},
	    {"name": "fa-b", "count": 60, "fps": 1, "arrival": "poisson",
	     "tier": "gw-b", "frame_bytes": 400, "offload_prob": 0.05,
	     "compute_sec": 0.02, "harvest_w": 2e-4, "store_j": 0.07}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rewritten, handWritten) {
		t.Fatalf("gateways form rewrote to\n%+v\nwant the hand-written tree\n%+v", rewritten, handWritten)
	}
}

func TestTierTreeValidation(t *testing.T) {
	base := chainScenario()
	mutate := func(f func(*Scenario)) Scenario {
		sc := base
		sc.Tiers = append([]Tier(nil), base.Tiers...)
		sc.Classes = append([]Class(nil), base.Classes...)
		f(&sc)
		return sc
	}
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"unknown parent", mutate(func(sc *Scenario) { sc.Tiers[0].Parent = "nowhere" })},
		{"two roots", mutate(func(sc *Scenario) { sc.Tiers[1].Parent = "" })},
		{"cycle (no root)", mutate(func(sc *Scenario) { sc.Tiers[2].Parent = "gw-a" })},
		{"self parent", mutate(func(sc *Scenario) { sc.Tiers[2].Parent = ""; sc.Tiers[0].Parent = "gw-a" })},
		{"duplicate tier", mutate(func(sc *Scenario) { sc.Tiers[0].Name = "metro"; sc.Classes[0].Tier = "metro" })},
		{"unnamed tier", mutate(func(sc *Scenario) { sc.Tiers[0].Name = ""; sc.Classes[0].Tier = "" })},
		{"negative propagation", mutate(func(sc *Scenario) { sc.Tiers[1].PropagationSec = -1 })},
		{"infinite propagation", mutate(func(sc *Scenario) { sc.Tiers[1].PropagationSec = math.Inf(1) })},
		{"unknown attach tier", mutate(func(sc *Scenario) { sc.Classes[0].Tier = "nowhere" })},
		{"tier and gateway disagree", mutate(func(sc *Scenario) { sc.Classes[0].Gateway = "metro" })},
		{"tiers mixed with gateways", mutate(func(sc *Scenario) {
			sc.Gateways = []Gateway{{Name: "g", Uplink: UplinkConfig{Gbps: 1}}}
		})},
		{"top-level uplink conflicts with root tier", mutate(func(sc *Scenario) {
			sc.Uplink = UplinkConfig{Gbps: 100}
		})},
		{"contention-only uplink conflicts with root tier", mutate(func(sc *Scenario) {
			sc.Uplink = UplinkConfig{Contention: ContentionFIFO}
		})},
		{"zero-capacity tier", mutate(func(sc *Scenario) { sc.Tiers[1].Uplink.Gbps = 0 })},
		{"flat class attached to the synthesized root by tier", mutate(func(sc *Scenario) {
			sc.Tiers, sc.Uplink = nil, UplinkConfig{Gbps: 1}
			sc.Classes[0].Tier = "wan"
		})},
	}
	for _, tc := range cases {
		if _, err := Run(tc.sc); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// A gateway may not shadow the synthesized root of the legacy form.
	bad := mixedScenario(1, ContentionFairShare)
	bad.Gateways = []Gateway{{Name: "wan", Uplink: UplinkConfig{Gbps: 1}}}
	if _, err := Run(bad); err == nil {
		t.Error("accepted a gateway named wan")
	}
	// Nor may a legacy class attach to the synthesized root by name —
	// "gateway": "wan" stays the typo it was before tier trees (empty
	// already attaches at the root).
	bad = twoTierScenario(1, PolicyStatic, 0)
	bad.Classes = append([]Class(nil), bad.Classes...)
	bad.Classes[1].Gateway = "wan"
	if _, err := Run(bad); err == nil {
		t.Error("accepted a legacy class attached to the synthesized root by name")
	}
	// In the tiers form the root is a first-class attach point.
	ok := chainScenario()
	ok.Classes = append([]Class(nil), ok.Classes...)
	ok.Classes[0].Tier = "core"
	if _, err := Run(ok); err != nil {
		t.Errorf("rejected a tier-form class attached at the root: %v", err)
	}
	// Validate must accept a fully-explicit tiers scenario that was never
	// normalized: it checks a normalized private copy.
	explicit := chainScenario()
	for i := range explicit.Tiers {
		explicit.Tiers[i].Uplink.Contention = ContentionFairShare
	}
	if err := explicit.Validate(); err != nil {
		t.Errorf("un-normalized explicit tiers scenario failed Validate: %v", err)
	}
	// Legacy fields that restate the tree are accepted and run the same
	// machine: a top-level uplink equal to the root's, with or without its
	// defaulted contention, and a class attached through the gateway
	// synonym.
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	accepted := []struct {
		name string
		sc   Scenario
	}{
		{"top-level uplink restating the root", mutate(func(sc *Scenario) {
			sc.Uplink = UplinkConfig{Gbps: 32e-3}
		})},
		{"top-level uplink restating the root with its contention", mutate(func(sc *Scenario) {
			sc.Uplink = UplinkConfig{Gbps: 32e-3, Contention: ContentionFairShare}
		})},
		{"tier-form class attached through the gateway synonym", mutate(func(sc *Scenario) {
			sc.Classes[0].Tier, sc.Classes[0].Gateway = "", "gw-a"
		})},
	}
	for _, tc := range accepted {
		res, err := Run(tc.sc)
		if err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		} else if res.Table() != want.Table() {
			t.Errorf("%s: ran differently:\n%s\nvs\n%s", tc.name, res.Table(), want.Table())
		}
	}
}

// randomTreeScenario builds a random-but-valid scenario over a random tier
// tree of up to five nodes, classes attached anywhere (including the root).
func randomTreeScenario(rng *rand.Rand) Scenario {
	sc := Scenario{
		Name:     fmt.Sprintf("tree-%d", rng.Int63()),
		Seed:     rng.Int63n(1 << 30),
		Duration: 0.5 + rng.Float64()*1.5,
	}
	nTiers := 1 + rng.Intn(5)
	for i := 0; i < nTiers; i++ {
		ti := Tier{
			Name: fmt.Sprintf("t%d", i),
			Uplink: UplinkConfig{
				Gbps:       0.001 + rng.Float64()*0.05,
				Contention: []string{ContentionFairShare, ContentionFIFO}[rng.Intn(2)],
			},
		}
		if i > 0 {
			// Any earlier node as parent: a uniformly random tree shape.
			ti.Parent = fmt.Sprintf("t%d", rng.Intn(i))
			if rng.Intn(2) == 0 {
				ti.PropagationSec = rng.Float64() * 0.01
			}
		}
		sc.Tiers = append(sc.Tiers, ti)
	}
	nClasses := 1 + rng.Intn(3)
	for i := 0; i < nClasses; i++ {
		c := Class{
			Name:           fmt.Sprintf("c%d", i),
			Count:          1 + rng.Intn(25),
			FPS:            0.5 + rng.Float64()*20,
			Arrival:        []string{ArrivalPeriodic, ArrivalPoisson}[rng.Intn(2)],
			FrameBytes:     int64(1 + rng.Intn(500_000)),
			OffloadProb:    rng.Float64(),
			ComputeSeconds: rng.Float64() * 0.05,
			QueueDepth:     1 + rng.Intn(6),
			Tier:           fmt.Sprintf("t%d", rng.Intn(nTiers)),
		}
		if rng.Intn(4) == 0 {
			c.Tier = "" // attach at the root
		}
		if rng.Intn(3) == 0 {
			c.HarvestW = 1e-5 + rng.Float64()*1e-3
			c.StoreJ = 1e-4 + rng.Float64()*0.1
		}
		sc.Classes = append(sc.Classes, c)
	}
	return sc
}

func TestTierTreeServedBytesConservedHopToHop(t *testing.T) {
	// Once a run drains, every link's served payload must equal the bytes
	// its directly attached classes offloaded plus everything its child
	// tiers forwarded up — byte conservation at every hop of the tree.
	// (Exact equality: served bytes are sums of integer frame sizes, which
	// float64 adds exactly regardless of order.)
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 60; iter++ {
		sc := randomTreeScenario(rng)
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("iter %d: %v\nscenario: %+v", iter, err, sc)
		}
		nodes, root, _, err := sc.topology()
		if err != nil {
			t.Fatal(err)
		}
		expect := make([]float64, len(nodes))
		for ci, cl := range sc.Classes {
			li := root
			if at := cl.Tier; at != "" {
				for i := range nodes {
					if nodes[i].Name == at {
						li = i
					}
				}
			}
			expect[li] += float64(res.Classes[ci].Offloaded) * float64(cl.FrameBytes)
		}
		// Children forward everything they serve; accumulate leaf-to-root
		// (a child is strictly deeper than its parent, so walk depths in
		// decreasing order).
		for d := len(nodes); d >= 0; d-- {
			for i, nd := range nodes {
				if nd.depth == d && nd.parent >= 0 {
					expect[nd.parent] += res.Tiers[i].ServedBytes
				}
			}
		}
		for i, nd := range nodes {
			if got := res.Tiers[i].ServedBytes; got != expect[i] {
				t.Fatalf("iter %d: tier %s served %v bytes, conservation expects %v\nscenario: %+v",
					iter, nd.Name, got, expect[i], sc)
			}
			if res.Tiers[i].Utilization < 0 || res.Tiers[i].Utilization > 1+1e-9 {
				t.Fatalf("iter %d: tier %s utilization %v", iter, nd.Name, res.Tiers[i].Utilization)
			}
		}
	}
}

func TestDeepTopologyScenarioAdaptsAndPaysPropagationFloor(t *testing.T) {
	run := func(policy string) *Result {
		sc, err := DeepTopologyScenario(1, 3, policy)
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
	if len(adaptive.Tiers) != 4 {
		t.Fatalf("depth-3 demo should resolve 4 tiers, got %+v", adaptive.Tiers)
	}
	// Propagation-inclusive latency: even adapted, no offload can beat the
	// summed one-way delays of the gw→metro→core path.
	const floor = 0.0002 + 0.002 + 0.01
	for _, i := range []int{0, 2} { // the two VR classes
		sp, ap := static.Classes[i], adaptive.Classes[i]
		if ap.LatencyP50 < floor {
			t.Fatalf("%s: p50 %v beats the %v propagation floor", ap.Name, ap.LatencyP50, floor)
		}
		if ap.LatencyP95 >= sp.LatencyP95 {
			t.Fatalf("%s: adaptive p95 %v not below static %v", ap.Name, ap.LatencyP95, sp.LatencyP95)
		}
		if ap.Switches == 0 {
			t.Fatalf("%s: deep congestion never moved a camera", ap.Name)
		}
	}
	if rt := adaptive.TierNamed("core"); rt == nil || adaptive.UplinkUtilization != rt.Utilization {
		t.Fatalf("UplinkUtilization not tied to the core tier")
	}
	if _, err := DeepTopologyScenario(1, 1, PolicyStatic); err == nil {
		t.Fatal("accepted depth 1")
	}
	again := run(PolicyLatencyThreshold)
	if adaptive.Table() != again.Table() {
		t.Fatalf("same seed produced different tables:\n%s\nvs\n%s", adaptive.Table(), again.Table())
	}
}
