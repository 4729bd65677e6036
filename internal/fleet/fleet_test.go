package fleet

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"camsim/internal/core"
)

// mixedScenario is a small saturating fleet: many periodic big-frame
// cameras plus Poisson small-frame harvesters.
func mixedScenario(seed int64, contention string) Scenario {
	return Scenario{
		Name:     "test-mixed",
		Seed:     seed,
		Duration: 5,
		Uplink:   UplinkConfig{Gbps: 0.1, Contention: contention},
		Classes: []Class{
			{
				Name: "big", Count: 20, FPS: 10, Arrival: ArrivalPeriodic,
				FrameBytes: 200_000, ComputeSeconds: 0.01, QueueDepth: 3,
				CaptureJ: 1e-3, ComputeJ: 5e-3, TxFixedJ: 1e-4, TxPerByteJ: 4e-8,
			},
			{
				Name: "small", Count: 50, FPS: 2, Arrival: ArrivalPoisson,
				FrameBytes: 1_000, OffloadProb: 0.8, ComputeSeconds: 0.005, QueueDepth: 4,
				CaptureJ: 3e-6, ComputeJ: 1e-6, TxFixedJ: 2e-6, TxPerByteJ: 5e-10,
				HarvestW: 5e-4, StoreJ: 0.05,
			},
		},
	}
}

func TestScenarioParseDefaultsAndValidate(t *testing.T) {
	sc, err := ParseScenario([]byte(`{
		"name": "json", "seed": 3, "duration_sec": 2,
		"uplink": {"gbps": 1},
		"classes": [{"name": "c", "count": 4, "fps": 5, "frame_bytes": 100}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Tiers[0].Uplink.Contention != ContentionFairShare {
		t.Fatalf("default contention = %q", sc.Tiers[0].Uplink.Contention)
	}
	c := sc.Classes[0]
	if c.Arrival != ArrivalPeriodic || c.QueueDepth != 4 || c.OffloadProb != 1 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if _, err := ParseScenario([]byte(`{"duration_sec": 2, "uplink": {"gbps": 1}}`)); err == nil {
		t.Fatal("accepted scenario without classes")
	}
	if _, err := ParseScenario([]byte(`{
		"duration_sec": 2, "uplink": {"gbps": 1, "contention": "priority"},
		"classes": [{"name": "c", "count": 1, "fps": 1}]
	}`)); err == nil {
		t.Fatal("accepted unknown contention model")
	}
}

// TestClassFieldsMustBeFinite pins the class checks against NaN and
// infinities, which JSON cannot carry but the Go API can. An infinite FPS
// once re-armed every capture at the same instant, so Run never returned,
// and a NaN FPS silently captured nothing. Validate and Run must both
// return the error.
func TestClassFieldsMustBeFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(c *Class)
		want string
	}{
		{"fps +Inf", func(c *Class) { c.FPS = inf }, "fps"},
		{"fps NaN", func(c *Class) { c.FPS = nan }, "fps"},
		{"compute time NaN", func(c *Class) { c.ComputeSeconds = nan }, "compute time"},
		{"compute time +Inf", func(c *Class) { c.ComputeSeconds = inf }, "compute time"},
		{"offload probability NaN", func(c *Class) { c.OffloadProb = nan }, "offload probability"},
		{"capture energy +Inf", func(c *Class) { c.CaptureJ = inf }, "energy parameters"},
		{"compute energy NaN", func(c *Class) { c.ComputeJ = nan }, "energy parameters"},
		{"fixed transmit energy +Inf", func(c *Class) { c.TxFixedJ = inf }, "energy parameters"},
		{"per-byte transmit energy NaN", func(c *Class) { c.TxPerByteJ = nan }, "energy parameters"},
		{"harvest power +Inf", func(c *Class) { c.HarvestW = inf; c.StoreJ = 0.05 }, "harvest power"},
		{"harvest power NaN", func(c *Class) { c.HarvestW = nan }, "harvest power"},
		{"store +Inf", func(c *Class) { c.HarvestW = 1e-3; c.StoreJ = inf }, "store"},
		{"store NaN", func(c *Class) { c.HarvestW = 1e-3; c.StoreJ = nan }, "store"},
		{"placement compute time +Inf", func(c *Class) { c.Placements[0].ComputeSeconds = inf }, "placement 0"},
		{"placement compute energy +Inf", func(c *Class) { c.Placements[1].ComputeJ = inf }, "placement 1"},
	}
	for _, tc := range cases {
		sc := twoTierScenario(1, PolicyLatencyThreshold, 0)
		tc.mut(&sc.Classes[0])
		verr := sc.Validate()
		if verr == nil || !strings.Contains(verr.Error(), tc.want) {
			t.Errorf("%s: Validate err = %v, want substring %q", tc.name, verr, tc.want)
			continue
		}
		if _, err := Run(sc); err == nil || err.Error() != verr.Error() {
			t.Errorf("%s: Run err = %v, want Validate's %v", tc.name, err, verr)
		}
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	for _, contention := range []string{ContentionFairShare, ContentionFIFO} {
		a, err := Run(mixedScenario(42, contention))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(mixedScenario(42, contention))
		if err != nil {
			t.Fatal(err)
		}
		if a.Table() != b.Table() {
			t.Fatalf("%s: same seed produced different tables:\n%s\nvs\n%s", contention, a.Table(), b.Table())
		}
		c, err := Run(mixedScenario(43, contention))
		if err != nil {
			t.Fatal(err)
		}
		if a.Table() == c.Table() {
			t.Fatalf("%s: different seeds produced identical tables", contention)
		}
	}
}

// TestNewLinkChecksItsInput pins the checks NewLink keeps for its callers
// outside the engine, which builds its own links from validated tiers.
func TestNewLinkChecksItsInput(t *testing.T) {
	if _, err := NewLink(ContentionFIFO, 0); err == nil || !strings.Contains(err.Error(), "must be positive") {
		t.Errorf("zero capacity: err = %v", err)
	}
	if _, err := NewLink("magic", 1000); err == nil || !strings.Contains(err.Error(), `unknown contention model "magic"`) {
		t.Errorf("unknown model: err = %v", err)
	}
}

func TestUplinkSingleAndSharedService(t *testing.T) {
	// One 1000-byte transfer on a 1000 B/s link takes 1 s under both
	// models; two admitted together take 1 s and 2 s under FIFO, and both
	// 2 s under fair share.
	for _, model := range []string{ContentionFIFO, ContentionFairShare} {
		up, err := NewLink(model, 1000)
		if err != nil {
			t.Fatal(err)
		}
		up.Start(0, 0, 1000)
		up.Start(0, 1, 1000)
		t1, ok := up.NextFinish()
		if !ok {
			t.Fatalf("%s: no in-flight transfer", model)
		}
		first := up.Finish()
		t2, _ := up.NextFinish()
		up.Finish()
		if model == ContentionFIFO {
			if first != 0 || math.Abs(t1-1) > 1e-9 || math.Abs(t2-2) > 1e-9 {
				t.Fatalf("fifo: finish(%d)=%v, then %v", first, t1, t2)
			}
		} else {
			if math.Abs(t1-2) > 1e-9 || math.Abs(t2-2) > 1e-9 {
				t.Fatalf("fair-share: finishes %v, %v, want both 2", t1, t2)
			}
		}
		if up.InFlight() != 0 || up.ServedBytes() != 2000 {
			t.Fatalf("%s: inflight %d served %v after drain", model, up.InFlight(), up.ServedBytes())
		}
	}
}

func TestFairShareConservesCapacity(t *testing.T) {
	// Under saturating load the uplink must never serve more than capacity:
	// the sum of per-camera throughputs, i.e. served bytes over elapsed
	// time, stays ≤ capacity (and under this load, close to it).
	sc := mixedScenario(7, ContentionFairShare)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Independent tally: completed offloads × payload, per class.
	capacity := sc.Uplink.BytesPerSecond()
	var servedBytes float64
	for i, cl := range res.Classes {
		servedBytes += float64(cl.Offloaded) * float64(sc.Classes[i].FrameBytes)
	}
	if servedBytes > capacity*res.SimEnd*(1+1e-9) {
		t.Fatalf("served %v bytes in %v s exceeds capacity %v B/s", servedBytes, res.SimEnd, capacity)
	}
	if got := servedBytes / (capacity * res.SimEnd); math.Abs(got-res.UplinkUtilization) > 1e-9 {
		t.Fatalf("reported utilization %v != per-class tally %v", res.UplinkUtilization, got)
	}
	if res.UplinkUtilization < 0.8 {
		t.Fatalf("saturating load only reached %v utilization", res.UplinkUtilization)
	}
}

func TestOffloadAccountingConserved(t *testing.T) {
	// With OffloadProb 1 every captured frame is offloaded, dropped by
	// backpressure, or skipped for energy — after the drain, nothing else.
	sc := mixedScenario(9, ContentionFairShare)
	sc.Classes = sc.Classes[:1] // the prob-1 class
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Classes[0]
	if s.Captured == 0 || s.DroppedQueue == 0 {
		t.Fatalf("expected saturation with drops, got %+v", s)
	}
	if s.Offloaded+s.DroppedQueue+s.DroppedEnergy != s.Captured {
		t.Fatalf("accounting leak: %+v", s)
	}
}

func TestDropCausesAreExclusive(t *testing.T) {
	// A harvesting prob-1 class pushed into both queue saturation and
	// energy starvation: each dropped frame must carry exactly one cause,
	// so the conservation identity (and DropRate ≤ 1) still holds.
	sc := mixedScenario(21, ContentionFairShare)
	sc.Classes = []Class{{
		Name: "both", Count: 30, FPS: 20, Arrival: ArrivalPeriodic,
		FrameBytes: 500_000, ComputeSeconds: 0.01, QueueDepth: 2,
		CaptureJ: 1e-4, ComputeJ: 1e-4, TxFixedJ: 1e-4, TxPerByteJ: 1e-9,
		HarvestW: 1e-3, StoreJ: 5e-3,
	}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Classes[0]
	if s.DroppedQueue == 0 || s.DroppedEnergy == 0 {
		t.Fatalf("scenario should exercise both drop causes: %+v", s)
	}
	if s.Offloaded+s.DroppedQueue+s.DroppedEnergy != s.Captured {
		t.Fatalf("drop causes not exclusive: %+v", s)
	}
	if s.DropRate() > 1 {
		t.Fatalf("drop rate %v > 1", s.DropRate())
	}
}

// TestDropSinkRouting pins which readers see each drop cause. A drop is
// one increment of its class counter: the telemetry window that closes
// next reads it from there, and both controller kinds read queue and
// outage drops from it at their next decision, once each, and energy
// drops not at all.
func TestDropSinkRouting(t *testing.T) {
	sc := Scenario{
		Name: "drops", Duration: 1, Uplink: UplinkConfig{Gbps: 1},
		Classes: []Class{{Name: "c", Count: 1, FPS: 1,
			Placements: []PlacementCost{{Name: "raw", FrameBytes: 100}, {Name: "cam", FrameBytes: 10}},
			Policy:     PolicyConfig{Kind: PolicyLatencyThreshold, HighSec: 1}}},
		Global:    &GlobalConfig{BudgetW: 1},
		Telemetry: &TelemetryConfig{Streaming: true, WindowSec: 1},
	}
	for cause, toControllers := range [3]bool{true, false, true} { // queue, energy, outage
		e, err := newEngine(sc)
		if err != nil {
			t.Fatal(err)
		}
		st := &e.res.Classes[0]
		counters := [3]*int64{&st.DroppedQueue, &st.DroppedEnergy, &st.DroppedOutage}
		*counters[cause]++
		e.acc.advance(1)
		win := e.acc.(*collector).series.Windows[0].Classes[0]
		var want [3]int64
		want[cause] = 1
		if got := [3]int64{win.DroppedQueue, win.DroppedEnergy, win.DroppedOutage}; got != want {
			t.Errorf("cause %d: window %v, want %v", cause, got, want)
		}
		wantCtl := int64(0)
		if toControllers {
			wantCtl = 1
		}
		for name, k := range map[string]int{"class": watchClass, "global": watchGlobal} {
			_, _, first := e.logs[0].consume(k, st)
			_, _, second := e.logs[0].consume(k, st)
			if first != wantCtl || second != 0 {
				t.Errorf("cause %d: %s controller read %d then %d drops, want %d then 0", cause, name, first, second, wantCtl)
			}
		}
	}
}

// TestTablelessClassHoldsRowZero pins the one row of a class without a
// placements table: its Policy.Start is never validated, so its cameras
// hold row 0 whatever Start says.
func TestTablelessClassHoldsRowZero(t *testing.T) {
	base, err := Run(mixedScenario(5, ContentionFairShare))
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []int{3, -2} {
		sc := mixedScenario(5, ContentionFairShare)
		for i := range sc.Classes {
			sc.Classes[i].Policy.Start = start
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("start %d: %v", start, err)
		}
		if res.Table() != base.Table() {
			t.Errorf("start %d moved the table:\n%s\nvs start 0:\n%s", start, res.Table(), base.Table())
		}
	}
}

func TestRunDoesNotMutateCallerClasses(t *testing.T) {
	// Scenario values built by hand often share backing arrays and
	// section pointers (copy-and-tweak); Run and RowDelaySeconds must
	// normalize a private copy, both to keep the caller's scenario intact
	// and to stay race-free under Sweep. Every pointer section is present
	// with its defaulted fields zero, so a section the private copy misses
	// shows up as a write into the caller's scenario.
	compute, err := ComputeDemoScenario(1, GlobalModeBudget)
	if err != nil {
		t.Fatal(err)
	}
	compute.Global.EpochSec, compute.Global.MoveFraction = 0, 0
	compute.Telemetry = &TelemetryConfig{Streaming: true}
	compute.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 1, Kind: DynCameraJoin, Class: compute.Classes[0].Name}, // count defaults to 1
	}}
	for i := range compute.Tiers {
		cc := compute.Tiers[i].Compute
		cc.Cores, cc.Discipline = 0, ""
	}
	for i := range compute.Classes {
		p := &compute.Classes[i].Policy
		p.Kind, p.IntervalSec, p.MoveFraction = "", 0, 0
	}
	federated := FederatedDemoScenario(1)
	federated.Federated.Model.BytesPerWeight, federated.Federated.Model.Compress = 0, 0
	for i := range federated.Tiers {
		federated.Tiers[i].Downlink.Contention = ""
	}
	for _, sc := range []Scenario{compute, federated} {
		for i := range sc.Tiers {
			sc.Tiers[i].Uplink.Contention = ""
		}
		for i := range sc.Classes {
			c := &sc.Classes[i]
			c.Arrival, c.QueueDepth, c.OffloadProb = "", 0, 0
		}
		before := deepCopyScenario(sc)
		if _, err := Run(sc); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(sc, before) {
			t.Errorf("%s: Run wrote into the caller's scenario", sc.Name)
		}
		if _, err := sc.RowDelaySeconds(sc.Classes[0].Name); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(sc, before) {
			t.Errorf("%s: RowDelaySeconds wrote into the caller's scenario", sc.Name)
		}
	}
}

// TestRunSharesNormalizedSchedule pins that a run reads a schedule with
// nothing left to normalize where the caller keeps it, instead of copying
// it on every Run, and that a churn entry whose Count normalize fills in
// still gets a private copy.
func TestRunSharesNormalizedSchedule(t *testing.T) {
	sc := dynamicsDemo(1)
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 1, Kind: DynCameraJoin, Class: "east", Count: 2},
		{Time: 2, Kind: DynLinkDegrade, Tier: "gw-a", Factor: 0.5},
	}}
	e, err := newEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	if &e.sc.Dynamics.Events[0] != &sc.Dynamics.Events[0] {
		t.Error("a normalized schedule was copied")
	}
	sc.Dynamics.Events[0].Count = 0
	if e, err = newEngine(sc); err != nil {
		t.Fatal(err)
	}
	if &e.sc.Dynamics.Events[0] == &sc.Dynamics.Events[0] {
		t.Error("a schedule normalize writes into is shared with the caller")
	}
	if got, caller := e.sc.Dynamics.Events[0].Count, sc.Dynamics.Events[0].Count; got != 1 || caller != 0 {
		t.Errorf("join count %d in the run and %d at the caller, want 1 and 0", got, caller)
	}
}

func TestFairShareProtectsSmallFlowsVsFIFO(t *testing.T) {
	// The design motivation for pluggable contention: behind multi-second
	// VR frames, a FIFO uplink head-of-line-blocks the face-auth chips;
	// processor sharing lets them slip through.
	ps, err := Run(mixedScenario(11, ContentionFairShare))
	if err != nil {
		t.Fatal(err)
	}
	ff, err := Run(mixedScenario(11, ContentionFIFO))
	if err != nil {
		t.Fatal(err)
	}
	small := func(r *Result) ClassStats { return r.Classes[1] }
	if small(ps).LatencyP50 >= small(ff).LatencyP50 {
		t.Fatalf("fair-share p50 %v not below FIFO p50 %v",
			small(ps).LatencyP50, small(ff).LatencyP50)
	}
}

func TestHarvestStarvationDropsFrames(t *testing.T) {
	sc := mixedScenario(5, ContentionFairShare)
	sc.Classes = sc.Classes[1:] // harvesting class only
	sc.Classes[0].HarvestW = 1e-6
	sc.Classes[0].StoreJ = 1e-5
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Classes[0]
	if s.DroppedEnergy == 0 {
		t.Fatalf("starved harvester dropped nothing: %+v", s)
	}
}

func TestClassBuildersComposeSingleCameraModels(t *testing.T) {
	fa := FaceAuthClass(10)
	if fa.Count != 10 || fa.FrameBytes != 400 || fa.HarvestW <= 0 {
		t.Fatalf("FaceAuthClass: %+v", fa)
	}
	if fa.OffloadProb <= 0 || fa.OffloadProb > 0.2 {
		t.Fatalf("progressive filtering should offload a small fraction, got %v", fa.OffloadProb)
	}
	p := PaperVRPipeline()
	full := core.Placement{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}}
	vrFull, err := VRClass(5, full, 30)
	if err != nil {
		t.Fatal(err)
	}
	vrRaw, err := VRClass(5, core.Placement{}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if vrFull.FrameBytes >= vrRaw.FrameBytes {
		t.Fatalf("full in-camera placement should shrink the payload: %d vs %d",
			vrFull.FrameBytes, vrRaw.FrameBytes)
	}
	cost, err := p.Cost(full)
	if err != nil {
		t.Fatal(err)
	}
	if vrFull.FrameBytes != cost.OffloadBytes || vrFull.ComputeSeconds != cost.ComputeSeconds {
		t.Fatalf("VRClass does not reflect the core cost hook: %+v vs %+v", vrFull, cost)
	}
}

func TestCoreCostHookMatchesEvaluate(t *testing.T) {
	p := PaperVRPipeline()
	for _, pl := range p.Enumerate([]string{"CPU", "GPU", "FPGA"}) {
		cost, err := p.Cost(pl)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Evaluate(pl, 3.125e9)
		if err != nil {
			t.Fatal(err)
		}
		if cost.OffloadBytes != a.OffloadBytes {
			t.Fatalf("%s: bytes %d vs %d", a.Label, cost.OffloadBytes, a.OffloadBytes)
		}
		if math.Abs(cost.ComputeSeconds*a.ComputeFPS-1) > 1e-9 {
			t.Fatalf("%s: compute %v s vs %v FPS", a.Label, cost.ComputeSeconds, a.ComputeFPS)
		}
	}
}

func TestPerCameraSeedsCollisionFree(t *testing.T) {
	// The old derivation shifted the seed left by 20 bits before mixing:
	// the top 20 seed bits vanished, and (seed, idx) and (seed, idx+2^20)
	// collided outright. Two full splitmix64 rounds must keep every
	// combination distinct — including camera indexes at and beyond 2^20
	// and seeds differing only in their high bits.
	seeds := []int64{0, 1, 42, 1 << 44, (1 << 44) + 1, -1}
	idxs := []int{0, 1, 1000, 1 << 20, (1 << 20) + 1, 1 << 21}
	seen := map[int64][2]any{}
	for _, s := range seeds {
		for _, i := range idxs {
			h := streamSeed(s, seedCamera, i)
			if prev, dup := seen[h]; dup {
				t.Fatalf("camera streams (%d,%d) and (%v,%v) share seed %d", s, i, prev[0], prev[1], h)
			}
			seen[h] = [2]any{s, i}
		}
	}
	// And the old failure mode specifically: same seed, indexes 2^20 apart.
	if streamSeed(7, seedCamera, 3) == streamSeed(7, seedCamera, 3+1<<20) {
		t.Fatal("camera indexes 2^20 apart still collide")
	}
}

func TestFIFOQueueBoundedOverLongRun(t *testing.T) {
	// A long run through a FIFO link with a bounded backlog delivers every
	// byte it admitted. The bound on the ring under the link is held by
	// queue's TestRingBoundedOverLongRun.
	up, err := NewLink(ContentionFIFO, 1000)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	const transfers = 200_000
	for i := 0; i < transfers; i++ {
		up.Start(now, i, 100)
		if up.InFlight() >= 8 {
			ft, _ := up.NextFinish()
			up.Finish()
			now = ft
		}
	}
	for up.InFlight() > 0 {
		up.Finish()
	}
	if up.ServedBytes() != transfers*100 {
		t.Fatalf("served %v bytes, want %v", up.ServedBytes(), transfers*100)
	}
}

func TestPreallocationEstimatesClamped(t *testing.T) {
	// A valid scenario (all fields positive and finite, accepted by
	// Validate) can make FPS × Duration × Count overflow float64→int;
	// int() of an out-of-range float is unspecified and a negative cap
	// panics make. The estimate helper must clamp every pathological
	// input instead of letting Run panic on a scenario Validate accepted.
	cases := []struct {
		in   float64
		want int
	}{
		{-1, 0}, {0, 0}, {math.NaN(), 0}, {0.5, 0}, {10.9, 10},
		{1 << 22, 1 << 22}, {1e200, 1 << 22}, {math.Inf(1), 1 << 22},
		{math.MaxFloat64, 1 << 22},
	}
	for _, tc := range cases {
		if got := clampEst(tc.in); got != tc.want {
			t.Fatalf("clampEst(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestSweepParallelMatchesSerial exercises the worker pool (under -race in
// CI) and pins sweep outputs to serial runs.
func TestSweepParallelMatchesSerial(t *testing.T) {
	var scs []Scenario
	for seed := int64(0); seed < 6; seed++ {
		sc := mixedScenario(seed, ContentionFairShare)
		sc.Duration = 2
		scs = append(scs, sc)
	}
	outs := Sweep(scs, 4)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		serial, err := Run(scs[i])
		if err != nil {
			t.Fatal(err)
		}
		if o.Result.Table() != serial.Table() {
			t.Fatalf("sweep[%d] diverged from serial run:\n%s\nvs\n%s", i, o.Result.Table(), serial.Table())
		}
	}
	if got := Sweep(nil, 0); len(got) != 0 {
		t.Fatalf("empty sweep returned %d outcomes", len(got))
	}
}
