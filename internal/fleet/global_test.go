package fleet

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// energyScenario is the hand-built fleet behind the global-controller
// tests: two uncongested gateways of VR heads whose raw-offload placement
// burns roughly twice the watts of the in-camera pipeline, priced through
// two forwarding hops. moveFraction caps the per-epoch reassignment.
func energyScenario(seed int64, budgetW, moveFraction float64) Scenario {
	vr := func(name, tier string) Class {
		return Class{
			Name: name, Count: 2, FPS: 10, Arrival: ArrivalPeriodic,
			Tier: tier, QueueDepth: 4,
			CaptureJ: 5e-3, TxFixedJ: 1e-4, TxPerByteJ: 4e-8,
			Placements: []PlacementCost{
				{Name: "raw", FrameBytes: 12_400_000, ComputeSeconds: 0.0001, ComputeJ: 0.0002},
				{Name: "full", FrameBytes: 1_122_000, ComputeSeconds: 0.0316, ComputeJ: 0.316},
			},
		}
	}
	return Scenario{
		Name:     "energy-test",
		Seed:     seed,
		Duration: 6,
		Tiers: []Tier{
			{Name: "gw-a", Parent: "core", Uplink: UplinkConfig{Gbps: 4}, PropagationSec: 0.0002, TxPerByteJ: 2e-8},
			{Name: "gw-b", Parent: "core", Uplink: UplinkConfig{Gbps: 4}, PropagationSec: 0.0002, TxPerByteJ: 2e-8},
			{Name: "core", Uplink: UplinkConfig{Gbps: 8}, PropagationSec: 0.002, TxPerByteJ: 1e-8},
		},
		Classes: []Class{vr("vr-a", "gw-a"), vr("vr-b", "gw-b")},
		Global:  &GlobalConfig{EpochSec: 1, BudgetW: budgetW, HighSec: 0.5, MoveFraction: moveFraction},
	}
}

func TestGlobalControllerDeterminism(t *testing.T) {
	// The same global scenario must produce byte-identical tables run
	// directly, rerun, and swept under different worker-pool widths.
	sc := energyScenario(3, 24, 0.5)
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Global == nil || first.Global.Moves == 0 {
		t.Fatalf("global controller never moved a camera: %+v", first.Global)
	}
	again, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Table() != again.Table() {
		t.Fatalf("rerun diverged:\n%s\nvs\n%s", first.Table(), again.Table())
	}
	points := []Scenario{sc, sc, sc, sc}
	for _, workers := range []int{1, 2, 4} {
		for i, o := range Sweep(points, workers) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			if o.Result.Table() != first.Table() {
				t.Fatalf("workers=%d point %d diverged from direct run", workers, i)
			}
		}
	}
}

func TestGlobalBudgetRespectedEachEpoch(t *testing.T) {
	// With an unconstrained per-epoch cap and a feasible budget (the
	// all-in-camera floor is ~16 W), every epoch must end with the
	// projected placement power under budget — the knapsack invariant.
	res, err := Run(energyScenario(3, 24, 1))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Global
	if g == nil || len(g.Epochs) == 0 {
		t.Fatalf("no global epochs recorded: %+v", g)
	}
	for i, ep := range g.Epochs {
		if ep.AfterW > g.BudgetW*(1+1e-12) {
			t.Fatalf("epoch %d (t=%v) ended over budget: %v W > %v W", i, ep.Time, ep.AfterW, g.BudgetW)
		}
		if ep.AfterW > ep.BeforeW {
			t.Fatalf("epoch %d raised projected power %v -> %v with no congestion", i, ep.BeforeW, ep.AfterW)
		}
	}
	if res.Energy.ProjectedW > g.BudgetW*(1+1e-12) {
		t.Fatalf("final projected power %v W over budget %v W", res.Energy.ProjectedW, g.BudgetW)
	}
	// The first epoch already fits: shedding is greedy, not gradual.
	if g.Epochs[0].AfterW > g.BudgetW {
		t.Fatalf("first epoch did not reach the budget: %+v", g.Epochs[0])
	}
	// And the controller sheds only to the line, not to the floor: some
	// camera must still hold the expensive raw placement.
	raw := 0
	for _, s := range res.Classes {
		if len(s.PlacementCounts) > 0 {
			raw += s.PlacementCounts[0]
		}
	}
	if raw == 0 {
		t.Fatalf("budget shedding overshot to the all-in-camera floor: %+v", res.Classes)
	}
}

func TestGlobalEnergyAccounting(t *testing.T) {
	res, err := Run(energyScenario(3, 24, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	// NetworkJ is exactly the per-tier forwarding sum, and every hop's
	// ForwardJ is its served bytes times its configured price.
	var sum float64
	for _, ti := range res.Tiers {
		want := ti.ServedBytes * ti.TxPerByteJ
		if math.Abs(ti.ForwardJ-want) > 1e-9*want {
			t.Fatalf("tier %s ForwardJ %v != ServedBytes×TxPerByteJ %v", ti.Name, ti.ForwardJ, want)
		}
		sum += ti.ForwardJ
	}
	if math.Abs(res.Energy.NetworkJ-sum) > 1e-9*sum || sum == 0 {
		t.Fatalf("NetworkJ %v != tier sum %v", res.Energy.NetworkJ, sum)
	}
	if res.Energy.CameraJ != res.Total.EnergyJ {
		t.Fatalf("CameraJ %v != Total.EnergyJ %v", res.Energy.CameraJ, res.Total.EnergyJ)
	}
	wantAvg := (res.Energy.CameraJ + res.Energy.NetworkJ) / res.SimEnd
	if math.Abs(res.Energy.AvgPowerW-wantAvg) > 1e-12 {
		t.Fatalf("AvgPowerW %v != %v", res.Energy.AvgPowerW, wantAvg)
	}
}

func TestEnergyWeightZeroReproducesLatencyThreshold(t *testing.T) {
	// Property: with energy_weight 0 the energy-latency policy IS the
	// latency-threshold policy — identical decisions, identical seeded
	// camera picks, identical switch sequence — across congested and
	// idle fleets and several seeds.
	build := func(sc Scenario, kind string) Scenario {
		sc.Classes = append([]Class(nil), sc.Classes...)
		for i := range sc.Classes {
			if len(sc.Classes[i].Placements) > 0 {
				p := &sc.Classes[i].Policy
				p.Kind = kind
				p.EnergyWeight = 0
				if p.HighSec == 0 {
					p.IntervalSec, p.HighSec, p.MoveFraction = 0.5, 0.5, 0.5
				}
			}
		}
		return sc
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, base := range []Scenario{
			twoTierScenario(seed, PolicyLatencyThreshold, 0), // congested edge link
			energyScenario(seed, 1e9, 0.5),                   // idle links, budget never binds
		} {
			base.Global = nil
			lt, err := Run(build(base, PolicyLatencyThreshold))
			if err != nil {
				t.Fatal(err)
			}
			el, err := Run(build(base, PolicyEnergyLatency))
			if err != nil {
				t.Fatal(err)
			}
			for ci := range lt.Classes {
				a, b := lt.Classes[ci], el.Classes[ci]
				if a.Switches != b.Switches {
					t.Fatalf("seed %d %s: switches %d vs %d", seed, a.Name, a.Switches, b.Switches)
				}
				if len(a.PlacementCounts) > 0 {
					for k := range a.PlacementCounts {
						if a.PlacementCounts[k] != b.PlacementCounts[k] {
							t.Fatalf("seed %d %s: placements %v vs %v", seed, a.Name, a.PlacementCounts, b.PlacementCounts)
						}
					}
				}
				if a.LatencyP95 != b.LatencyP95 || a.Captured != b.Captured || a.EnergyJ != b.EnergyJ {
					t.Fatalf("seed %d %s: stats diverged: %+v vs %+v", seed, a.Name, a, b)
				}
			}
		}
	}
}

func TestEnergyLatencyWalksTowardCheaperPlacement(t *testing.T) {
	// On idle links with a positive weight, the policy must move every
	// head to the cheaper in-camera row without any congestion signal.
	sc, err := EnergyDemoScenario(1, PolicyEnergyLatency)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Classes {
		if len(s.PlacementCounts) == 0 {
			continue
		}
		if s.DroppedQueue != 0 {
			t.Fatalf("%s: congestion contaminated the energy-only test: %+v", s.Name, s)
		}
		if s.Switches == 0 || s.PlacementCounts[0] != 0 {
			t.Fatalf("%s: heads did not walk in-camera: %+v", s.Name, s)
		}
	}
	static, err := EnergyDemoScenario(1, PolicyStatic)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.ProjectedW >= sres.Energy.ProjectedW {
		t.Fatalf("energy-latency projected %v W not below static %v W",
			res.Energy.ProjectedW, sres.Energy.ProjectedW)
	}
}

func TestMoveAcceptSkipsOverBudgetRows(t *testing.T) {
	// Three-row table with the class split across rows: stepping a row-1
	// camera in-camera (+4 W) overshoots the budget while stepping a
	// row-0 camera (−9 W) fits. Whatever order the seeded shuffle draws,
	// the batch must skip the over-budget cameras and still shed — the
	// old first-overshoot break returned 0 moves and stranded the fleet
	// over a feasible budget.
	sc := Scenario{Classes: []Class{{
		Name: "mixed", Count: 4, FPS: 1,
		Placements: []PlacementCost{{FrameBytes: 1}, {FrameBytes: 1}, {FrameBytes: 1}},
	}}}
	for seed := int64(1); seed <= 20; seed++ {
		g := &globalController{
			cfg: GlobalConfig{BudgetW: 20, EpochSec: 1, MoveFraction: 1},
			rng: newPRNG(seed),
		}
		e := &engine{
			sc:        sc,
			cams:      []camera{{placement: 1}, {placement: 0}, {placement: 1}, {placement: 0}},
			classCams: [][]int32{{0, 1, 2, 3}},
			fps:       []float64{1},
			rowJ:      [][]float64{{10, 1, 5}},
		}
		projected := 22.0 // 1 + 10 + 1 + 10
		moved := g.moveAccept(e, 0, +1, 4, &projected, false)
		if moved == 0 {
			t.Fatalf("seed %d: over-budget rows aborted the whole batch", seed)
		}
		if projected > 20 {
			t.Fatalf("seed %d: still over budget after shedding: %v W", seed, projected)
		}
	}
}

// TestGlobalEnergyPhaseProgress pins the argument that lets the energy
// phase keep no list of blocked picks: a pick saves power on average over
// its class's movable cameras, so one of them has a step that does not
// raise its power, and the batch moves that camera. On rows of 10, 5 and
// 8 mJ a row-0 camera's step saves 5 mW and a row-1 camera's costs 3 mW:
// whichever the shuffle draws first, the phase moves the row-0 camera,
// skips the row-1 camera and stops at the budget.
func TestGlobalEnergyPhaseProgress(t *testing.T) {
	sc := Scenario{
		Name: "progress", Seed: 1, Duration: 1,
		Uplink: UplinkConfig{Gbps: 1},
		Classes: []Class{{Name: "cam", Count: 2, FPS: 1, Placements: []PlacementCost{
			{FrameBytes: 1, ComputeJ: 0.010}, {FrameBytes: 1, ComputeJ: 0.005}, {FrameBytes: 1, ComputeJ: 0.008},
		}}},
		Global: &GlobalConfig{BudgetW: 0.012, MoveFraction: 1},
	}
	e, err := newEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	e.cams[0].placement, e.cams[1].placement = 0, 1
	e.gctl.epoch(0.5, e)
	want := []GlobalMove{{Class: "cam", Dir: +1, Count: 1, Reason: "energy"}}
	if eps := e.gctl.stats.Epochs; len(eps) != 1 || !reflect.DeepEqual(eps[0].Moves, want) {
		t.Fatalf("epochs %+v, want one with moves %+v", eps, want)
	}
	if p0, p1 := e.cams[0].placement, e.cams[1].placement; p0 != 1 || p1 != 1 {
		t.Fatalf("placements %d and %d, want both cameras on row 1", p0, p1)
	}
}

// TestGlobalWatchesTabledClassesOnly runs the global controller over one
// tabled class and one without a table. A class without a table can
// never move, so it has no log and nothing is fed to one; the tabled
// class's log is fed.
func TestGlobalWatchesTabledClassesOnly(t *testing.T) {
	sc := energyScenario(3, 24, 0.5)
	sc.Classes = []Class{sc.Classes[0], {Name: "plain", Count: 50, FPS: 10, Arrival: ArrivalPoisson, Tier: "gw-b", FrameBytes: 10_000}}
	e, err := newEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	e.loop()
	// consume keeps a log's backing array, so a latency it once held is
	// still there after the last epoch emptied it.
	held := func(l latLog) bool {
		return slices.ContainsFunc(l.lat[:cap(l.lat)], func(x float64) bool { return x > 0 })
	}
	if e.res.Classes[1].Offloaded == 0 || !held(e.logs[0]) || e.logs[1].watchers != 0 || e.logs[1].lat != nil {
		t.Fatalf("tabled log held latencies %v; table-less class, over %d offloads, has %d watchers and a log of capacity %d",
			held(e.logs[0]), e.res.Classes[1].Offloaded, e.logs[1].watchers, cap(e.logs[1].lat))
	}
}

func TestGlobalValidation(t *testing.T) {
	base := energyScenario(1, 24, 0.5)

	bad := base
	bad.Global = &GlobalConfig{BudgetW: 0}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted a zero global budget")
	}

	bad = base
	bad.Global = &GlobalConfig{BudgetW: 24, MoveFraction: 1.5}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted a move fraction above 1")
	}

	bad = base
	bad.Global = &GlobalConfig{BudgetW: 24, HighSec: math.Inf(1)}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted an infinite high_sec")
	}

	bad = base
	bad.Classes = append([]Class(nil), base.Classes...)
	for i := range bad.Classes {
		bad.Classes[i].Placements = nil
		bad.Classes[i].FrameBytes = 1000
	}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted a global controller with no placements table to reassign")
	}

	bad = base
	bad.Classes = append([]Class(nil), base.Classes...)
	bad.Classes[0].Policy = PolicyConfig{Kind: PolicyEnergyLatency, HighSec: 1, EnergyWeight: -1}
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted a negative energy weight")
	}

	bad = base
	bad.Tiers = append([]Tier(nil), base.Tiers...)
	bad.Tiers[0].TxPerByteJ = -1e-9
	if _, err := Run(bad); err == nil {
		t.Fatal("accepted negative forwarding energy")
	}
}

func TestPlacementEnergyPerFrame(t *testing.T) {
	c := Class{
		CaptureJ: 1e-3, ComputeJ: 0.5, TxFixedJ: 1e-4, TxPerByteJ: 1e-8,
		FrameBytes: 1000, OffloadProb: 0.5,
	}
	// Table-less: class fields, offload costs weighted by probability.
	want := 1e-3 + 0.5 + 0.5*(1e-4+(1e-8+2e-8)*1000)
	if got := c.PlacementEnergyPerFrame(0, 2e-8); math.Abs(got-want) > 1e-15 {
		t.Fatalf("table-less energy %v, want %v", got, want)
	}
	// With a table, the row's bytes and compute override the class's.
	c.Placements = []PlacementCost{
		{Name: "raw", FrameBytes: 4000, ComputeSeconds: 0, ComputeJ: 0},
		{Name: "full", FrameBytes: 100, ComputeSeconds: 0.03, ComputeJ: 0.9},
	}
	want = 1e-3 + 0.9 + 0.5*(1e-4+(1e-8+2e-8)*100)
	if got := c.PlacementEnergyPerFrame(1, 2e-8); math.Abs(got-want) > 1e-15 {
		t.Fatalf("row energy %v, want %v", got, want)
	}
}

// TestGlobalReadsFPSProfile pins the capture rate the global controller
// and Energy.ProjectedW price: ten cameras declared at 1 FPS and profiled
// ×2 from t=0 capture at 2 FPS, so they must project the same power and
// shed the same cameras under the budget as the same fleet declared at
// 2 FPS. Pricing the declared rate halves the projection, which then
// sits under the budget and sheds nothing.
func TestGlobalReadsFPSProfile(t *testing.T) {
	fleet := func(fps, profile float64) Scenario {
		sc := Scenario{
			Name: "fps-profile", Seed: 7, Duration: 4,
			Tiers: []Tier{{Name: "core", Uplink: UplinkConfig{Gbps: 1}}},
			Classes: []Class{{Name: "cams", Count: 10, FPS: fps, CaptureJ: 1e-3, TxPerByteJ: 5e-8,
				Placements: []PlacementCost{
					{Name: "raw", FrameBytes: 20_000},
					{Name: "cam", FrameBytes: 2_000, ComputeJ: 3e-4},
				}}},
			Global: &GlobalConfig{EpochSec: 1, BudgetW: 0.03, MoveFraction: 0.5},
		}
		if profile != 0 {
			sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
				{Time: 0, Kind: DynFPSProfile, Class: "cams", Multiplier: profile},
			}}
		}
		return sc
	}
	declared, err := Run(fleet(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := Run(fleet(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if declared.Global.Moves == 0 {
		t.Fatal("the declared 2 FPS fleet shed nothing; the budget no longer binds")
	}
	if profiled.Energy.ProjectedW != declared.Energy.ProjectedW {
		t.Errorf("projected %v W profiled, %v W declared", profiled.Energy.ProjectedW, declared.Energy.ProjectedW)
	}
	if !reflect.DeepEqual(profiled.Global, declared.Global) {
		t.Errorf("global decisions differ:\nprofiled %+v\ndeclared %+v", *profiled.Global, *declared.Global)
	}
	if p, d := profiled.Classes[0].PlacementCounts, declared.Classes[0].PlacementCounts; !reflect.DeepEqual(p, d) {
		t.Errorf("final placements %v profiled, %v declared", p, d)
	}
}
