package fleet

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// dynamicsDemo is a two-gateway tree with enough traffic that an outage
// catches transfers in flight: slow gateway uplinks keep several frames
// resident per event.
func dynamicsDemo(seed int64) Scenario {
	return Scenario{
		Name:     "dynamics-demo",
		Seed:     seed,
		Duration: 8,
		Tiers: []Tier{
			{Name: "gw-a", Parent: "core", Uplink: UplinkConfig{Gbps: 0.002}},
			{Name: "gw-b", Parent: "core", Uplink: UplinkConfig{Gbps: 0.002, Contention: ContentionFIFO}},
			{Name: "core", Uplink: UplinkConfig{Gbps: 0.008}},
		},
		Classes: []Class{
			{Name: "east", Count: 12, FPS: 6, FrameBytes: 40_000, Tier: "gw-a", QueueDepth: 4},
			{Name: "west", Count: 12, FPS: 6, FrameBytes: 40_000, Tier: "gw-b", QueueDepth: 4},
		},
	}
}

// assertConserved checks the conservation property, per class and for
// the fleet total: every captured frame is accounted exactly once —
// completed, kept in the camera, queue-dropped, energy-dropped, or
// dropped by an outage. The run has drained when the loop exits, so
// nothing can remain "queued" invisibly.
func assertConserved(t *testing.T, label string, res *Result) {
	t.Helper()
	n := len(res.Classes)
	for _, s := range append(res.Classes[:n:n], res.Total) {
		if got := s.Offloaded + s.KeptInCamera + s.DroppedQueue + s.DroppedEnergy + s.DroppedOutage; got != s.Captured {
			t.Errorf("%s: class %s: %d offloaded + %d kept + %d dropQ + %d dropE + %d dropOutage = %d, captured %d",
				label, s.Name, s.Offloaded, s.KeptInCamera, s.DroppedQueue, s.DroppedEnergy, s.DroppedOutage, got, s.Captured)
		}
	}
}

// TestDynamicsEmptyScheduleIsIdentical pins the opt-in contract: a
// present dynamics section with an empty event list must be
// byte-identical to no section at all — the engine is never constructed.
func TestDynamicsEmptyScheduleIsIdentical(t *testing.T) {
	plain, err := Run(dynamicsDemo(7))
	if err != nil {
		t.Fatal(err)
	}
	sc := dynamicsDemo(7)
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{}}
	empty, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Table() != empty.Table() {
		t.Fatalf("empty schedule perturbed the run:\n%s\nvs\n%s", plain.Table(), empty.Table())
	}
	if empty.Dynamics != nil {
		t.Fatal("empty schedule produced dynamics stats")
	}
	if !reflect.DeepEqual(plain.Classes, empty.Classes) || !reflect.DeepEqual(plain.Tiers, empty.Tiers) {
		t.Fatal("empty schedule perturbed class or tier stats")
	}
}

// TestDynamicsConservation drives churn, an outage/recovery cycle and a
// never-restored dead link across several seeds and holds the
// conservation property each time, alongside run-twice determinism.
func TestDynamicsConservation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 11, 42} {
		sc := dynamicsDemo(seed)
		sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
			{Time: 0.5, Kind: DynCameraJoin, Class: "east", Count: 3, EverySec: 1.5},
			{Time: 1.0, Kind: DynCameraLeave, Class: "west", EverySec: 2},
			{Time: 2.0, Kind: DynTierOutage, Tier: "gw-a", Fallback: "gw-b"},
			{Time: 4.0, Kind: DynTierRecover, Tier: "gw-a"},
			{Time: 6.0, Kind: DynLinkDegrade, Tier: "gw-b", Factor: 0},
			// gw-b is never restored: everything parked on it at the end
			// must drain as accounted outage drops, not hang or vanish.
		}}
		a, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertConserved(t, sc.Name, a)
		if a.Dynamics == nil || a.Dynamics.Events != 5 {
			t.Fatalf("seed %d: dynamics stats %+v", seed, a.Dynamics)
		}
		if a.Dynamics.Joined == 0 || a.Dynamics.Left == 0 || a.Dynamics.DroppedOutage == 0 {
			t.Fatalf("seed %d: schedule did not exercise churn and outage drops: %+v", seed, a.Dynamics)
		}
		b, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: rerun: %v", seed, err)
		}
		if a.Table() != b.Table() {
			t.Fatalf("seed %d: dynamics run is not deterministic:\n%s\nvs\n%s", seed, a.Table(), b.Table())
		}
		if !reflect.DeepEqual(a.Dynamics, b.Dynamics) {
			t.Fatalf("seed %d: dynamics stats diverged between identical runs", seed)
		}
	}
}

// TestDynamicsOutageRehoming pins the outage lifecycle: downtime
// accrues exactly outage→recovery, in-flight transfers through the dead
// tier are dropped and attributed to it, the attached class re-homes to
// the fallback for the window (the fallback carries its traffic) and
// re-homes back on recovery.
func TestDynamicsOutageRehoming(t *testing.T) {
	sc := dynamicsDemo(3)
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 2, Kind: DynTierOutage, Tier: "gw-a", Fallback: "gw-b"},
		{Time: 5, Kind: DynTierRecover, Tier: "gw-a"},
	}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	assertConserved(t, sc.Name, res)
	gwa := res.TierNamed("gw-a")
	if gwa.DowntimeSec != 3 {
		t.Fatalf("gw-a downtime = %v, want 3", gwa.DowntimeSec)
	}
	if gwa.OutageDrops == 0 || res.Classes[0].DroppedOutage == 0 {
		t.Fatalf("outage caught nothing in flight: tier %d, class %d", gwa.OutageDrops, res.Classes[0].DroppedOutage)
	}
	// 12 east cameras re-home out and back: 24 re-homings.
	if res.Dynamics.Rehomed != 24 || res.Classes[0].Rehomed != 24 {
		t.Fatalf("rehomed = %d (class %d), want 24", res.Dynamics.Rehomed, res.Classes[0].Rehomed)
	}
	if res.TierNamed("gw-b").DowntimeSec != 0 {
		t.Fatal("downtime leaked onto the healthy gateway")
	}
	// The fallback carried east's traffic during the window, so it served
	// strictly more than in the undisturbed run.
	plain, err := Run(dynamicsDemo(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.TierNamed("gw-b").ServedBytes <= plain.TierNamed("gw-b").ServedBytes {
		t.Fatalf("fallback served %v, undisturbed %v — re-homed traffic missing",
			res.TierNamed("gw-b").ServedBytes, plain.TierNamed("gw-b").ServedBytes)
	}
	if res.Classes[0].Offloaded == 0 {
		t.Fatal("east completed nothing despite the fallback")
	}
}

// TestDynamicsOutageDuringInCameraCompute covers frames whose transfer
// record exists before the fault but which leave the camera during it:
// in-camera compute (0.4 s) outlasts a 0.3 s gw-a outage, and the links
// are fast enough that nothing is on the wire when the tier fails, so
// the frames captured in [1.6 s, 1.9 s) become ready while gw-a is down.
// The class attached at gw-a re-homes them to gw-b; the class attached
// below gw-a drops them at gw-a's entry; a class losing half its cameras
// mid-compute still completes their frames. Every frame must land in
// exactly one bucket, per class and in total.
func TestDynamicsOutageDuringInCameraCompute(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 11} {
		sc := Scenario{
			Name:     "outage-mid-compute",
			Seed:     seed,
			Duration: 4,
			Tiers: []Tier{
				{Name: "edge", Parent: "gw-a", Uplink: UplinkConfig{Gbps: 1000}},
				{Name: "gw-a", Parent: "core", Uplink: UplinkConfig{Gbps: 1000}},
				{Name: "gw-b", Parent: "core", Uplink: UplinkConfig{Gbps: 1000, Contention: ContentionFIFO}},
				{Name: "core", Uplink: UplinkConfig{Gbps: 1000}},
			},
			Classes: []Class{
				{Name: "east", Count: 12, FPS: 6, FrameBytes: 40_000, Tier: "gw-a", QueueDepth: 4, ComputeSeconds: 0.4},
				{Name: "leaf", Count: 12, FPS: 6, FrameBytes: 40_000, Tier: "edge", QueueDepth: 4, ComputeSeconds: 0.4, Arrival: ArrivalPoisson},
				{Name: "west", Count: 12, FPS: 6, FrameBytes: 40_000, Tier: "gw-b", QueueDepth: 4, ComputeSeconds: 0.4},
			},
			Dynamics: &DynamicsConfig{Events: []FleetEvent{
				{Time: 2, Kind: DynTierOutage, Tier: "gw-a", Fallback: "gw-b"},
				{Time: 2, Kind: DynCameraLeave, Class: "west", Count: 6},
				{Time: 2.3, Kind: DynTierRecover, Tier: "gw-a"},
			}},
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed %d", seed)
		assertConserved(t, label, res)
		tot := &res.Total
		if got := tot.Offloaded + tot.DroppedQueue + tot.DroppedEnergy + tot.DroppedOutage; got != tot.Captured {
			t.Errorf("%s: total %d offloaded + %d dropQ + %d dropE + %d dropOutage = %d, captured %d",
				label, tot.Offloaded, tot.DroppedQueue, tot.DroppedEnergy, tot.DroppedOutage, got, tot.Captured)
		}
		east, leaf, west := &res.Classes[0], &res.Classes[1], &res.Classes[2]
		if leaf.DroppedOutage == 0 || res.TierNamed("gw-a").OutageDrops != leaf.DroppedOutage+east.DroppedOutage {
			t.Errorf("%s: leaf lost %d frames ready mid-outage, gw-a charged %d", label, leaf.DroppedOutage, res.TierNamed("gw-a").OutageDrops)
		}
		if east.Rehomed != 24 || west.Left != 6 {
			t.Errorf("%s: east re-homed %d (want 24), west left %d (want 6)", label, east.Rehomed, west.Left)
		}
	}
}

// TestDynamicsLinkDegradeRestore pins mid-run capacity rescale with
// conserved progress on both contention models: a degraded window slows
// completions (higher p95), a zero-factor park with a later restore
// loses nothing, and the tier's served bytes are conserved.
func TestDynamicsLinkDegradeRestore(t *testing.T) {
	for _, contention := range []string{ContentionFairShare, ContentionFIFO} {
		sc := dynamicsDemo(5)
		sc.Tiers[0].Uplink.Contention = contention
		sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
			{Time: 2, Kind: DynLinkDegrade, Tier: "gw-a", Factor: 0},
			{Time: 4, Kind: DynLinkRestore, Tier: "gw-a"},
		}}
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", contention, err)
		}
		assertConserved(t, contention, res)
		// A parked-then-restored link drops nothing: frames stall and then
		// finish (or are queue-dropped at their cameras while parked).
		if res.Dynamics.DroppedOutage != 0 {
			t.Fatalf("%s: park+restore dropped %d frames", contention, res.Dynamics.DroppedOutage)
		}
		plain, err := Run(dynamicsDemo(5))
		if err != nil {
			t.Fatalf("%s: %v", contention, err)
		}
		if res.Classes[0].LatencyP95 <= plain.Classes[0].LatencyP95 {
			t.Fatalf("%s: two-second park did not raise east's p95 (%v vs %v)",
				contention, res.Classes[0].LatencyP95, plain.Classes[0].LatencyP95)
		}
	}
}

// TestServerRescaleByHand checks finish times across a rescale against
// hand computation, on the servers directly. Each link discipline is
// degraded to half, parked at zero (NextFinish +Inf) and restored while a
// second transfer waits behind the first (FIFO) or shares the link with
// it (fair share); then an idle link is parked, admits a transfer and is
// restored. The FIFO pool grows, which promotes waiting frames at once,
// and shrinks, which preempts nothing.
func TestServerRescaleByHand(t *testing.T) {
	const idle = -1.0
	inf := math.Inf(1)
	type step struct {
		op   byte    // 's' Start, 'c' setCapacity, 'k' setCores, 'f' Finish
		at   float64 // the operation's time; 'f' repeats the finish the step before reports
		id   int     // 's': the admitted id; 'f': the id that must finish
		x    float64 // 's': size; 'c': capacity; 'k': cores
		next float64 // NextFinish after the step; idle when nothing is in flight
	}
	link := func(model string) func() Link {
		return func() Link {
			l, err := NewLink(model, 1000)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
	}
	cases := []struct {
		name  string
		build func() Link
		steps []step
	}{
		{"fifo link", link(ContentionFIFO), []step{
			{'s', 0, 0, 1000, 1},
			{'s', 0, 1, 500, 1},
			// 500 bytes left at 0.5 s continue at 500 B/s.
			{'c', 0.5, 0, 500, 1.5},
			// 250 bytes left at 1 s are parked.
			{'c', 1, 0, 0, inf},
			{'c', 2, 0, 1000, 2.25},
			// The queued transfer starts the instant the head departs.
			{'f', 2.25, 0, 0, 2.75},
			{'f', 2.75, 1, 0, idle},
			{'c', 3, 0, 0, idle},
			{'s', 3, 2, 1000, inf},
			{'c', 4, 0, 1000, 5},
			{'f', 5, 2, 0, idle},
		}},
		{"fair-share link", link(ContentionFairShare), []step{
			{'s', 0, 0, 1000, 1},
			// 500 and 400 bytes left share 1000 B/s.
			{'s', 0.5, 1, 400, 1.3},
			// 250 and 150 left share 500 B/s.
			{'c', 1, 0, 500, 1.6},
			// 125 and 25 left are parked.
			{'c', 1.5, 0, 0, inf},
			{'c', 3, 0, 1000, 3.05},
			// 100 bytes left run alone.
			{'f', 3.05, 1, 0, 3.15},
			{'f', 3.15, 0, 0, idle},
			{'c', 4, 0, 0, idle},
			{'s', 4, 2, 500, inf},
			{'c', 5, 0, 2000, 5.25},
			{'f', 5.25, 2, 0, idle},
		}},
		{"fifo pool", func() Link {
			return newComputeServer(&ComputeConfig{Cores: 1, ServiceRateFPS: 1, Discipline: ContentionFIFO})
		}, []step{
			{'s', 0, 0, 1, 1},
			{'s', 0, 1, 2, 1},
			{'s', 0, 2, 0.25, 1},
			// Growth to three cores serves both waiting frames from 0.5 s.
			{'k', 0.5, 0, 3, 0.75},
			{'f', 0.75, 2, 0, 1},
			// Shrink to one core preempts neither frame in service, and
			// the frame admitted next waits for both to finish.
			{'k', 0.75, 0, 1, 1},
			{'s', 0.75, 3, 1, 1},
			{'f', 1, 0, 0, 2.5},
			{'f', 2.5, 1, 0, 3.5},
			{'f', 3.5, 3, 0, idle},
		}},
	}
	for _, c := range cases {
		l := c.build()
		for i, s := range c.steps {
			switch s.op {
			case 's':
				l.Start(s.at, s.id, s.x)
			case 'c':
				l.setCapacity(s.at, s.x)
			case 'k':
				l.setCores(s.at, int(s.x))
			case 'f':
				if id := l.Finish(); id != s.id {
					t.Fatalf("%s step %d: finished %d, want %d", c.name, i, id, s.id)
				}
			}
			ft, ok := l.NextFinish()
			switch {
			case s.next == idle:
				if ok {
					t.Fatalf("%s step %d: next finish %v, want idle", c.name, i, ft)
				}
			case !ok || (ft != s.next && math.Abs(ft-s.next) > 1e-12):
				t.Fatalf("%s step %d: next finish %v (busy %v), want %v", c.name, i, ft, ok, s.next)
			}
		}
	}
}

// TestDynamicsStallDrain pins the terminal stall path: a link degraded
// to zero and never restored must not hang the run — everything parked
// on it drains as accounted outage drops and the loop terminates.
func TestDynamicsStallDrain(t *testing.T) {
	for _, contention := range []string{ContentionFairShare, ContentionFIFO} {
		sc := dynamicsDemo(9)
		sc.Tiers[0].Uplink.Contention = contention
		sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
			{Time: 2, Kind: DynLinkDegrade, Tier: "gw-a", Factor: 0},
		}}
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", contention, err)
		}
		assertConserved(t, contention, res)
		if res.Dynamics.DroppedOutage == 0 {
			t.Fatalf("%s: dead link stranded no frames — the stall path was not exercised", contention)
		}
		if res.TierNamed("gw-a").OutageDrops != res.Dynamics.DroppedOutage {
			t.Fatalf("%s: stall drops not attributed to the dead tier", contention)
		}
	}
}

// TestDynamicsFPSProfile pins the rate multiplier: doubling a class's
// rate mid-run captures more frames than the undisturbed run, halving
// captures fewer, and the other class is untouched either way.
func TestDynamicsFPSProfile(t *testing.T) {
	plain, err := Run(dynamicsDemo(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mul  float64
		more bool
	}{{2, true}, {0.5, false}} {
		sc := dynamicsDemo(4)
		sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
			{Time: 4, Kind: DynFPSProfile, Class: "east", Multiplier: tc.mul},
		}}
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("mul %v: %v", tc.mul, err)
		}
		if more := res.Classes[0].Captured > plain.Classes[0].Captured; more != tc.more {
			t.Fatalf("mul %v: east captured %d vs %d", tc.mul, res.Classes[0].Captured, plain.Classes[0].Captured)
		}
		if res.Classes[1].Captured != plain.Classes[1].Captured {
			t.Fatalf("mul %v: west's captures moved (%d vs %d)", tc.mul, res.Classes[1].Captured, plain.Classes[1].Captured)
		}
	}
}

// TestDynamicsFPSStepIsImmediate pins what "from this time on" means for
// a Poisson class: an fps_profile step rescales its arrival rate at the
// step, not after each camera spends a gap drawn at the old rate. N
// cameras at λ stepped to 4λ must capture N·4λ·δ frames in the next δ,
// within 4 standard errors of a Poisson count. Had every camera first
// finished its old-rate gap, a 1→4 step would yield about 2.1 frames per
// camera in the first 1/λ, not 4.
func TestDynamicsFPSStepIsImmediate(t *testing.T) {
	const (
		cams  = 400
		fps   = 1.0
		step  = 5.0
		mul   = 4.0
		delta = 1 / fps
	)
	captured := func(duration float64) int64 {
		sc := Scenario{
			Name: "fps-step", Seed: 3, Duration: duration,
			Uplink:  UplinkConfig{Gbps: 1},
			Classes: []Class{{Name: "p", Count: cams, FPS: fps, Arrival: ArrivalPoisson}},
			Dynamics: &DynamicsConfig{Events: []FleetEvent{
				{Time: step, Kind: DynFPSProfile, Class: "p", Multiplier: mul},
			}},
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res.Classes[0].Captured
	}
	// The runs share every draw before the step, so the difference is the
	// count in [step, step+δ).
	got := float64(captured(step+delta) - captured(step))
	want := cams * mul * fps * delta
	if z := (got - want) / math.Sqrt(want); math.Abs(z) > 4 {
		t.Fatalf("%v frames in the %vs after a ×%v step, want %v (z %.2f)", got, delta, mul, want, z)
	}
}

// periodicStep is a fleet of one periodic class, cams cameras at fps,
// whose fps_profile steps to each of muls at the matching times, run for
// duration.
func periodicStep(cams int, fps, duration float64, at, muls []float64) Scenario {
	sc := Scenario{
		Name: "periodic-step", Seed: 3, Duration: duration,
		Uplink:   UplinkConfig{Gbps: 1},
		Classes:  []Class{{Name: "p", Count: cams, FPS: fps, FrameBytes: 1000}},
		Dynamics: &DynamicsConfig{},
	}
	for k, m := range muls {
		sc.Dynamics.Events = append(sc.Dynamics.Events, FleetEvent{Time: at[k], Kind: DynFPSProfile, Class: "p", Multiplier: m})
	}
	return sc
}

// periodicCaptured runs sc and returns its one class's captured frames.
func periodicCaptured(t *testing.T, sc Scenario) int64 {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	assertConserved(t, sc.Name, res)
	return res.Classes[0].Captured
}

// TestDynamicsPeriodicFPSStepIsImmediate is the periodic analogue of
// TestDynamicsFPSStepIsImmediate: a ×4 step at t = 5 shortens what is
// left of every camera's pending period at once, so each of 400 cameras
// at 1 FPS captures exactly once in the quarter second after the step.
// Had every camera first finished its 1 s period, only those whose phase
// fell in that quarter, about 100, would.
func TestDynamicsPeriodicFPSStepIsImmediate(t *testing.T) {
	const cams, step, mul = 400, 5.0, 4.0
	captured := func(duration float64) int64 {
		return periodicCaptured(t, periodicStep(cams, 1, duration, []float64{step}, []float64{mul}))
	}
	// The runs share every draw before the step, so the difference is the
	// count in [step, step+1/mul).
	if got := captured(step+1/mul) - captured(step); got < cams-2 || got > cams+2 {
		t.Fatalf("%d frames in the %vs after a ×%v step, want %d", got, 1/mul, mul, cams)
	}
}

// TestDynamicsPeriodicRateStepMatchesDeclaredRate pins the rate clock to
// the bit: a class declared at 2 FPS and the same class declared at 1
// FPS under a ×2 fps_profile from t = 0 give identical ClassStats.
// Halving commutes with rounding, so every capture time of the stepped
// class is exactly the declared class's.
func TestDynamicsPeriodicRateStepMatchesDeclaredRate(t *testing.T) {
	declared := dynamicsDemo(9)
	declared.Classes[0].FPS = 2
	stepped := dynamicsDemo(9)
	stepped.Classes[0].FPS = 1
	stepped.Dynamics = &DynamicsConfig{Events: []FleetEvent{{Time: 0, Kind: DynFPSProfile, Class: "east", Multiplier: 2}}}
	a, err := Run(declared)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(stepped)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Classes, b.Classes) {
		t.Fatalf("2 FPS declared and 1 FPS ×2 differ:\n%+v\nvs\n%+v", a.Classes, b.Classes)
	}
}

// TestDynamicsPeriodicStepAtHorizon pins a step shortly before Duration
// at both edges. A ×4 step a quarter second before the horizon pulls
// every camera's next capture inside it, three quarters of which lay past
// the horizon at the step. A ×¼ step there pushes every pending capture
// past it but those within a sixteenth of a second, which fire: exactly
// the captures an unstepped run makes in that sixteenth. Every time
// involved is exact in binary, so both counts are exact.
func TestDynamicsPeriodicStepAtHorizon(t *testing.T) {
	const cams, step, end = 400, 9.75, 10.0
	before := periodicCaptured(t, periodicStep(cams, 1, step, nil, nil))
	if got := periodicCaptured(t, periodicStep(cams, 1, end, []float64{step}, []float64{4})) - before; got != cams {
		t.Errorf("×4 at %v: %d frames before the horizon at %v, want %d", step, got, end, cams)
	}
	want := periodicCaptured(t, periodicStep(cams, 1, step+(end-step)/4, nil, nil)) - before
	if got := periodicCaptured(t, periodicStep(cams, 1, end, []float64{step}, []float64{0.25})) - before; got != want {
		t.Errorf("×¼ at %v: %d frames before the horizon at %v, want %d", step, got, end, want)
	}
}

// TestDynamicsPeriodicPauseResumes pins a pause: a ×1e-300 step parks a
// periodic class, which captures nothing while parked, and a ×1 step
// resumes it at its declared rate. No time is NaN, and every frame is
// accounted. Pushing each camera's next capture about 1e300 s out and
// dropping it at the horizon would leave the class silent after the
// resume.
func TestDynamicsPeriodicPauseResumes(t *testing.T) {
	const cams, fps = 50, 2.0
	run := func(duration float64) *Result {
		sc := periodicStep(cams, fps, duration, []float64{2, 3}, []float64{1e-300, 1})
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		assertConserved(t, sc.Name, res)
		return res
	}
	paused, resumed, end := run(2), run(3), run(6)
	if got := resumed.Classes[0].Captured - paused.Classes[0].Captured; got != 0 {
		t.Errorf("the paused class captured %d frames", got)
	}
	// Three seconds at 2 FPS is six captures per camera, give or take one
	// at either edge.
	if got := end.Classes[0].Captured - resumed.Classes[0].Captured; got < cams*5 || got > cams*7 {
		t.Errorf("the resumed class captured %d frames in 3s, want about %d", got, cams*6)
	}
	for _, res := range []*Result{paused, resumed, end} {
		c := res.Classes[0]
		for _, v := range []float64{res.SimEnd, c.EnergyJ, c.LatencyP50, c.LatencyP95, c.LatencyP99} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("a time or total is %v: SimEnd %v, class %+v", v, res.SimEnd, c)
			}
		}
	}
}

// TestDynamicsPeriodicRepeatedStepIsNoOp pins a step to the multiplier
// already live: it moves no capture, to the bit. A non-dyadic rate keeps
// the check sharp, since restarting the class's clock there would round
// its capture times differently.
func TestDynamicsPeriodicRepeatedStepIsNoOp(t *testing.T) {
	once, err := Run(periodicStep(40, 3, 4, []float64{0.7}, []float64{1.3}))
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Run(periodicStep(40, 3, 4, []float64{0.7, 2.1}, []float64{1.3, 1.3}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(once.Classes, twice.Classes) {
		t.Fatalf("a repeated ×1.3 moved the class:\n%+v\nvs\n%+v", once.Classes, twice.Classes)
	}
}

// periodicChurn is TestCameraStructuresNeverRegrow's harvest fleet, on
// TestDynamicsHarvestChurn's faster links, with a recurring leave on its
// periodic class too, so both of its classes gain
// and lose cameras throughout the run, at a constant rate.
func periodicChurn() Scenario {
	sc := dynamicsDemo(13)
	sc.Tiers[0].Uplink.Gbps = 0.02
	sc.Tiers[1].Uplink.Gbps = 0.02
	sc.Tiers[2].Uplink.Gbps = 0.05
	sc.Classes = []Class{
		{Name: "bg", Count: 6, FPS: 4, FrameBytes: 20_000, Tier: "gw-b", QueueDepth: 4},
		{Name: "solar", Count: 8, FPS: 8, Arrival: ArrivalPoisson, FrameBytes: 20_000,
			OffloadProb: 0.7, Tier: "gw-a", QueueDepth: 3, CaptureJ: 1e-3, HarvestW: 0.02, StoreJ: 0.04},
	}
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 0.5, Kind: DynCameraJoin, Class: "solar", Count: 2, EverySec: 0.8},
		{Time: 1.0, Kind: DynCameraLeave, Class: "solar", EverySec: 1.2},
		{Time: 1.5, Kind: DynCameraLeave, Class: "bg", Count: 2, EverySec: 0.9},
		{Time: 2.0, Kind: DynCameraJoin, Class: "bg", Count: 3, EverySec: 0.3},
	}}
	return sc
}

// TestPeriodicChurnDigest pins the table of a periodic class under
// recurring joins and leaves with no rate step: each joiner's first
// capture falls a random phase inside one period after its join, and a
// leaver's pending capture is skipped, so a joiner filed out of time
// order, or a leaver that kept capturing, moves the digest.
func TestPeriodicChurnDigest(t *testing.T) {
	res, err := Run(periodicChurn())
	if err != nil {
		t.Fatal(err)
	}
	assertConserved(t, "periodic-churn", res)
	const want = "f56508732b02e08d6dd59ce680587f12bbdadcfda4e82ceb95390d1de0447f28"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Table()))); got != want {
		t.Errorf("table digest %s, want %s:\n%s", got, want, res.Table())
	}
}

// TestDynamicsChurnCounters pins churn bookkeeping: joins and leaves
// land in the class and run-wide counters, the final camera count moves
// accordingly, and joiners actually capture frames.
func TestDynamicsChurnCounters(t *testing.T) {
	sc := dynamicsDemo(6)
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 1, Kind: DynCameraJoin, Class: "east", Count: 5},
		{Time: 2, Kind: DynCameraLeave, Class: "west", Count: 3},
	}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	assertConserved(t, sc.Name, res)
	if res.Classes[0].Joined != 5 || res.Classes[0].Cameras != 17 {
		t.Fatalf("east joined %d, cameras %d", res.Classes[0].Joined, res.Classes[0].Cameras)
	}
	if res.Classes[1].Left != 3 || res.Classes[1].Cameras != 9 {
		t.Fatalf("west left %d, cameras %d", res.Classes[1].Left, res.Classes[1].Cameras)
	}
	if res.Dynamics.Joined != 5 || res.Dynamics.Left != 3 {
		t.Fatalf("run-wide churn %+v", res.Dynamics)
	}
	plain, err := Run(dynamicsDemo(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes[0].Captured <= plain.Classes[0].Captured {
		t.Fatal("joiners captured nothing")
	}
	if res.Classes[1].Captured >= plain.Classes[1].Captured {
		t.Fatal("leavers kept capturing")
	}
}

// TestDynamicsLeaveEmptiesClass pins a leave that asks for more cameras
// than its class has left: it retires every member and stops there.
func TestDynamicsLeaveEmptiesClass(t *testing.T) {
	sc := dynamicsDemo(4)
	sc.Classes[1].Count = 2
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 1, Kind: DynCameraLeave, Class: "west", Count: 5},
	}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	assertConserved(t, sc.Name, res)
	if w := res.Classes[1]; w.Left != 2 || w.Cameras != 0 {
		t.Fatalf("west left %d, cameras %d; want 2 and 0", w.Left, w.Cameras)
	}
}

// TestDynamicsJoinDoesNotPerturbExistingCameras pins seed-family
// isolation: adding a second, traffic-free class plus a churn schedule
// for it leaves the first class's results bit-identical — existing
// cameras' streams, the first class's arrival stream and the shared
// links never see the difference. Each arrival pattern is checked on
// both classes: a joiner re-deals its own class's Poisson arrivals, and
// no other class's.
func TestDynamicsJoinDoesNotPerturbExistingCameras(t *testing.T) {
	for _, arrival := range []string{ArrivalPeriodic, ArrivalPoisson} {
		base := dynamicsDemo(8)
		base.Classes = base.Classes[:1]
		base.Classes[0].Arrival = arrival
		plain, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		sc := dynamicsDemo(8)
		sc.Classes = append(sc.Classes[:1], Class{Name: "ghost", Count: 2, FPS: 1, Arrival: arrival, Tier: "gw-b"})
		sc.Classes[0].Arrival = arrival
		sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
			{Time: 1, Kind: DynCameraJoin, Class: "ghost", Count: 4, EverySec: 1},
		}}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Classes[0], res.Classes[0]) {
			t.Fatalf("%s: ghost churn perturbed east:\n%+v\nvs\n%+v", arrival, plain.Classes[0], res.Classes[0])
		}
	}
}

// TestDynamicsPoissonClassRefills pins a Poisson class emptied by a
// leave and refilled by a later join: with no camera its stream keeps no
// arrival pending, and the join redraws one, so the class captures
// nothing while empty and captures again, at the joiners' rate, once
// refilled.
func TestDynamicsPoissonClassRefills(t *testing.T) {
	const fps, joiners = 20.0, 2
	captured := func(duration float64) int64 {
		sc := dynamicsDemo(5)
		sc.Duration = duration
		sc.Classes[0].Arrival = ArrivalPoisson
		sc.Classes[0].FPS = fps
		sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
			{Time: 2, Kind: DynCameraLeave, Class: "east", Count: 12},
			{Time: 4, Kind: DynCameraJoin, Class: "east", Count: joiners},
		}}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		assertConserved(t, sc.Name, res)
		return res.Classes[0].Captured
	}
	before, empty, refilled := captured(2), captured(4), captured(8)
	if empty != before {
		t.Errorf("the emptied class captured %d frames while it had no camera", empty-before)
	}
	want := joiners * fps * 4
	if got := float64(refilled - empty); math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("the refilled class captured %v frames in 4s, want about %v", got, want)
	}
}

// TestDynamicsComputeScale pins the scheduled core-pool resize: scaling
// the pool up mid-run relieves queueing (lower wait p95 than the
// undersized constant pool), conserves frames, and replays exactly.
func TestDynamicsComputeScale(t *testing.T) {
	shape := func() Scenario {
		sc := dynamicsDemo(10)
		sc.Tiers[0].Compute = &ComputeConfig{Cores: 1, ServiceRateFPS: 40}
		return sc
	}
	slow, err := Run(shape())
	if err != nil {
		t.Fatal(err)
	}
	sc := shape()
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 1, Kind: DynComputeScale, Tier: "gw-a", Cores: 8},
	}}
	fast, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	assertConserved(t, sc.Name, fast)
	sw, fw := slow.TierNamed("gw-a").Compute, fast.TierNamed("gw-a").Compute
	if fw.WaitP95 >= sw.WaitP95 {
		t.Fatalf("8-core rescale did not relieve queueing: wait p95 %v vs %v", fw.WaitP95, sw.WaitP95)
	}
	again, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Table() != again.Table() {
		t.Fatal("compute_scale run is not deterministic")
	}
}

// TestDynamicsTelemetryAvailability pins the per-window availability
// columns: downtime seconds sum to the tier's run-wide downtime, the
// capacity fraction reflects the degraded window, outage drops land in
// their windows, and the CSV gains exactly the three new columns.
func TestDynamicsTelemetryAvailability(t *testing.T) {
	sc := dynamicsDemo(12)
	sc.Telemetry = &TelemetryConfig{Streaming: true, WindowSec: 1}
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 2, Kind: DynTierOutage, Tier: "gw-a", Fallback: "gw-b"},
		{Time: 4, Kind: DynTierRecover, Tier: "gw-a"},
		{Time: 5, Kind: DynLinkDegrade, Tier: "gw-b", Factor: 0.5},
		{Time: 7, Kind: DynLinkRestore, Tier: "gw-b"},
	}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	ts := res.TimeSeries
	if ts == nil || len(ts.Windows) == 0 {
		t.Fatal("no time series")
	}
	var downA, dropOutage float64
	for _, win := range ts.Windows {
		if len(win.TierDownSec) != len(win.TierUtil) || len(win.TierCapFrac) != len(win.TierUtil) {
			t.Fatalf("availability columns misshapen: %+v", win)
		}
		downA += win.TierDownSec[0]
		for ci := range win.Classes {
			dropOutage += float64(win.Classes[ci].DroppedOutage)
		}
		for li, f := range win.TierCapFrac {
			if !(f >= 0) || math.IsInf(f, 0) {
				t.Fatalf("window %d link %d cap frac %v", win.Index, li, f)
			}
		}
	}
	if math.Abs(downA-res.TierNamed("gw-a").DowntimeSec) > 1e-9 {
		t.Fatalf("windowed downtime %v, run-wide %v", downA, res.TierNamed("gw-a").DowntimeSec)
	}
	if int64(dropOutage) != res.Total.DroppedOutage {
		t.Fatalf("windowed outage drops %v, run-wide %d", dropOutage, res.Total.DroppedOutage)
	}
	// Window [5,6) ran gw-b at factor 0.5 throughout.
	if got := ts.Windows[5].TierCapFrac[1]; math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("degraded window cap frac = %v, want 0.5", got)
	}
	if got := ts.Windows[2].TierDownSec[0]; math.Abs(got-1) > 1e-9 {
		t.Fatalf("outage window downtime = %v, want 1", got)
	}
	var csv strings.Builder
	if err := ts.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(csv.String(), "\n")
	if !strings.HasSuffix(header, ",utilization,dropped_outage,down_sec,cap_frac") {
		t.Fatalf("CSV header missing availability columns: %q", header)
	}
}

// TestDynamicsOpenOutageWindows pins the windows of an outage still open
// when the run ends: the loop closes the windows up to its last event
// and the collector closes the rest after the run drains, and each
// window must report at most its own length down while the windows sum
// to the tier's run-wide downtime.
func TestDynamicsOpenOutageWindows(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		sc := Scenario{
			Name:     "open-outage",
			Seed:     seed,
			Duration: 1,
			Tiers: []Tier{
				{Name: "gw", Parent: "core", Uplink: UplinkConfig{Gbps: 1}},
				{Name: "core", Uplink: UplinkConfig{Gbps: 1}},
			},
			Classes:   []Class{{Name: "c", Count: 1, FPS: 1, FrameBytes: 1000, Tier: "core"}},
			Telemetry: &TelemetryConfig{Streaming: true, WindowSec: 0.1},
			Dynamics:  &DynamicsConfig{Events: []FleetEvent{{Time: 0.3, Kind: DynTierOutage, Tier: "gw"}}},
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		down := res.TierNamed("gw").DowntimeSec
		if math.Abs(down-0.7) > 1e-9 {
			t.Fatalf("seed %d: gw downtime %v, want 0.7", seed, down)
		}
		li := slices.Index(res.TimeSeries.Tiers, "gw")
		sum := 0.0
		for _, w := range res.TimeSeries.Windows {
			d := w.TierDownSec[li]
			if d > w.End-w.Start+1e-9 {
				t.Errorf("seed %d: window [%v, %v) reports %v s down", seed, w.Start, w.End, d)
			}
			sum += d
		}
		if math.Abs(sum-down) > 1e-9 {
			t.Errorf("seed %d: windows sum to %v s down, run-wide %v", seed, sum, down)
		}
	}
}

// TestDynamicsLateEntryEndsRun pins that a schedule entry firing after
// the last frame lands ends the run at its own time: gw fails at 0.5 s
// of a 1 s run and recovers at 5 s, so the run's downtime, utilization
// and time series all close at 5 s, not where the traffic drained.
func TestDynamicsLateEntryEndsRun(t *testing.T) {
	sc := Scenario{
		Name:     "late-recover",
		Seed:     1,
		Duration: 1,
		Tiers: []Tier{
			{Name: "gw", Parent: "wan", Uplink: UplinkConfig{Gbps: 1}},
			{Name: "gw2", Parent: "wan", Uplink: UplinkConfig{Gbps: 1}},
			{Name: "wan", Uplink: UplinkConfig{Gbps: 1}},
		},
		Classes:   []Class{{Name: "c", Count: 10, FPS: 10, FrameBytes: 1000, Tier: "gw"}},
		Telemetry: &TelemetryConfig{Streaming: true, WindowSec: 0.1},
		Dynamics: &DynamicsConfig{Events: []FleetEvent{
			{Time: 0.5, Kind: DynTierOutage, Tier: "gw", Fallback: "gw2"},
			{Time: 5, Kind: DynTierRecover, Tier: "gw"},
		}},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimEnd != 5 {
		t.Errorf("SimEnd %v, want the recovery's 5 s", res.SimEnd)
	}
	for _, ts := range res.Tiers {
		if ts.DowntimeSec > res.SimEnd {
			t.Errorf("%s: down %v s in a run that ended at %v s", ts.Name, ts.DowntimeSec, res.SimEnd)
		}
		bps := UplinkConfig{Gbps: ts.Gbps}.BytesPerSecond()
		if want := ts.ServedBytes / (bps * res.SimEnd); ts.Utilization != want {
			t.Errorf("%s: utilization %v, want served bytes over capacity × SimEnd %v", ts.Name, ts.Utilization, want)
		}
	}
	if down := res.TierNamed("gw").DowntimeSec; math.Abs(down-4.5) > 1e-9 {
		t.Errorf("gw down %v s, want 4.5", down)
	}
	ws := res.TimeSeries.Windows
	if last := ws[len(ws)-1].End; last != res.SimEnd {
		t.Errorf("last window ends at %v, SimEnd %v", last, res.SimEnd)
	}
}

// TestDynamicsValidation walks the schedule's rejection surface.
func TestDynamicsValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		evs  []FleetEvent
		want string
	}{
		{"unknown kind", []FleetEvent{{Time: 1, Kind: "meteor_strike"}}, "unknown event kind"},
		{"negative time", []FleetEvent{{Time: -1, Kind: DynCameraJoin, Class: "east"}}, "finite and non-negative"},
		{"out of order", []FleetEvent{
			{Time: 2, Kind: DynCameraJoin, Class: "east"},
			{Time: 1, Kind: DynCameraJoin, Class: "east"},
		}, "time-ordered"},
		{"ghost class", []FleetEvent{{Time: 1, Kind: DynCameraJoin, Class: "nope"}}, `unknown class "nope"`},
		{"ghost tier", []FleetEvent{{Time: 1, Kind: DynLinkDegrade, Tier: "nope", Factor: 0.5}}, `unknown tier "nope"`},
		{"negative factor", []FleetEvent{{Time: 1, Kind: DynLinkDegrade, Tier: "gw-a", Factor: -0.5}}, "out of range"},
		{"misplaced factor", []FleetEvent{{Time: 1, Kind: DynCameraJoin, Class: "east", Factor: 0.5}}, "factor belongs"},
		{"misplaced multiplier", []FleetEvent{{Time: 1, Kind: DynTierRecover, Tier: "gw-a", Multiplier: 2}}, "multiplier belongs"},
		// A class on a link or tier kind would be ignored, not applied.
		{"class on link_degrade", []FleetEvent{{Time: 1, Kind: DynLinkDegrade, Tier: "gw-a", Factor: 0.5, Class: "east"}}, "class belongs"},
		{"class on link_restore", []FleetEvent{{Time: 1, Kind: DynLinkRestore, Tier: "gw-a", Class: "east"}}, "class belongs"},
		{"class on tier_outage", []FleetEvent{{Time: 1, Kind: DynTierOutage, Tier: "gw-a", Fallback: "gw-b", Class: "east"}}, "class belongs"},
		{"class on tier_recover", []FleetEvent{{Time: 1, Kind: DynTierRecover, Tier: "gw-a", Class: "east"}}, "class belongs"},
		{"class on compute_scale", []FleetEvent{{Time: 1, Kind: DynComputeScale, Tier: "gw-a", Cores: 2, Class: "east"}}, "class belongs"},
		{"root outage", []FleetEvent{{Time: 1, Kind: DynTierOutage, Tier: "core"}}, "root tier cannot fail"},
		{"double outage", []FleetEvent{
			{Time: 1, Kind: DynTierOutage, Tier: "gw-a", Fallback: "gw-b"},
			{Time: 2, Kind: DynTierOutage, Tier: "gw-a", Fallback: "gw-b"},
		}, "already down"},
		{"recover while up", []FleetEvent{{Time: 1, Kind: DynTierRecover, Tier: "gw-a"}}, "not down"},
		{"stranded without fallback", []FleetEvent{{Time: 1, Kind: DynTierOutage, Tier: "gw-a"}}, "needs a fallback"},
		{"fallback is self", []FleetEvent{{Time: 1, Kind: DynTierOutage, Tier: "gw-a", Fallback: "gw-a"}}, "failing tier itself"},
		{"zero multiplier", []FleetEvent{{Time: 1, Kind: DynFPSProfile, Class: "east", Multiplier: 0}}, "must be positive"},
		{"compute scale without pool", []FleetEvent{{Time: 1, Kind: DynComputeScale, Tier: "gw-a", Cores: 2}}, "no compute section"},
		// 24 declared cameras, then two joins whose sum passes the int32 ids.
		{"joins past the camera ids", []FleetEvent{
			{Time: 1, Kind: DynCameraJoin, Class: "east", Count: math.MaxInt32 - 30},
			{Time: 2, Kind: DynCameraJoin, Class: "west", Count: 10},
		}, "count 10 makes more than 2147483647 cameras"},
		// Every firing counts toward the joiner bound, recurring ones too:
		// 1000 cameras about every microsecond for 7 s.
		{"recurring joins past the bound", []FleetEvent{
			{Time: 1, Kind: DynCameraJoin, Class: "east", Count: 1000, EverySec: 1e-6},
		}, "dynamics event 0 (camera_join): joins add more than 4194304 cameras"},
	} {
		sc := dynamicsDemo(1)
		sc.Dynamics = &DynamicsConfig{Events: tc.evs}
		if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// The bound is on the cameras the joins add: exactly 2^22 validate, one
	// more does not, and re-firings that pass the int32 ids after the
	// declared cameras fail though each first firing fits.
	sc := dynamicsDemo(1)
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{{Time: 1, Kind: DynCameraJoin, Class: "east", Count: 1 << 22}}}
	if err := sc.Validate(); err != nil {
		t.Errorf("2^22 joiners: %v", err)
	}
	sc.Dynamics.Events = append(sc.Dynamics.Events, FleetEvent{Time: 2, Kind: DynCameraJoin, Class: "west", Count: 1})
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "dynamics event 1 (camera_join): joins add more than 4194304 cameras") {
		t.Errorf("2^22+1 joiners: err = %v", err)
	}
	sc.Classes[0].Count = math.MaxInt32 - 30
	sc.Dynamics.Events = []FleetEvent{{Time: 1, Kind: DynCameraJoin, Class: "east", Count: 5, EverySec: 0.01}}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "2147483629 declared cameras and") ||
		!strings.Contains(err.Error(), "joiners make more than 2147483647 cameras") {
		t.Errorf("re-firings past the camera ids: err = %v", err)
	}
	// A fallback whose offload path crosses the failing tier is useless.
	sc = dynamicsDemo(1)
	sc.Tiers = []Tier{
		{Name: "leaf", Parent: "mid", Uplink: UplinkConfig{Gbps: 1}},
		{Name: "mid", Parent: "core", Uplink: UplinkConfig{Gbps: 1}},
		{Name: "core", Uplink: UplinkConfig{Gbps: 1}},
	}
	sc.Classes = []Class{{Name: "east", Count: 2, FPS: 1, FrameBytes: 1000, Tier: "mid"}}
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 1, Kind: DynTierOutage, Tier: "mid", Fallback: "leaf"},
	}}
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "offloads through the failing tier") {
		t.Errorf("fallback through failing tier: err = %v", err)
	}
	// Dynamics cannot ride alongside a federated job.
	sc = dynamicsDemo(1)
	fl := FederatedDemoScenario(1)
	sc.Federated = fl.Federated
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 1, Kind: DynCameraJoin, Class: "east"},
	}}
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "federated") {
		t.Errorf("federated combo: err = %v", err)
	}
}

// rehomePricing is a fleet whose adaptive class re-homes between a
// gateway without a core pool and one with a pool and dearer
// forwarding, so every outage and recovery reprices the class's energy
// rows and switches its delay rows between none and set.
func rehomePricing(seed int64, weight float64, start int, poolFPS float64, global *GlobalConfig) Scenario {
	return Scenario{
		Name: "rehome-pricing", Seed: seed, Duration: 6,
		Tiers: []Tier{
			{Name: "gw-a", Parent: "core", Uplink: UplinkConfig{Gbps: 0.4}, PropagationSec: 0.0002, TxPerByteJ: 2e-8},
			{Name: "gw-b", Parent: "core", Uplink: UplinkConfig{Gbps: 0.4}, PropagationSec: 0.0002, TxPerByteJ: 5e-8,
				Compute: &ComputeConfig{Cores: 4, ServiceRateFPS: poolFPS}},
			{Name: "core", Uplink: UplinkConfig{Gbps: 0.8}, PropagationSec: 0.002, TxPerByteJ: 1e-8},
		},
		Classes: []Class{
			{Name: "east", Count: 24, FPS: 2, Arrival: ArrivalPoisson, Tier: "gw-a",
				CaptureJ: 1e-3, TxFixedJ: 1e-4, TxPerByteJ: 1e-9,
				Placements: []PlacementCost{
					{Name: "raw", FrameBytes: 100_000, ComputeSeconds: 0.002, ComputeJ: 1e-3},
					{Name: "cam", FrameBytes: 10_000, ComputeSeconds: 0.03, ComputeJ: 8e-3},
				},
				Policy: PolicyConfig{Kind: PolicyEnergyLatency, IntervalSec: 0.25, HighSec: 0.2,
					MoveFraction: 0.1, EnergyWeight: weight, Start: start}},
			{Name: "bg", Count: 8, FPS: 5, FrameBytes: 50_000},
		},
		Global: global,
		Dynamics: &DynamicsConfig{Events: []FleetEvent{
			{Time: 0.6, Kind: DynTierOutage, Tier: "gw-a", Fallback: "gw-b"},
			{Time: 4, Kind: DynTierRecover, Tier: "gw-a"},
		}},
	}
}

// TestRehomeRepricesControllers pins two re-homing runs' tables, one
// driven by the class controller's energy-latency rule and one by the
// global controller's knapsack. Each outage and recovery reprices east's
// rows; a controller that kept scoring against the rows priced before
// the move, or never saw the fallback's delay rows, decides differently
// and moves its table.
func TestRehomeRepricesControllers(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"class", rehomePricing(11, 40, 0, 10, nil), `scenario rehome-pricing               uplink 0.8 Gb/s fair-share util   5.9%  drained 6.00s
  class                    cams  captured   offload   dropQ   dropE      p50      p95      p99    J/frame
  east                       24       268       268       0       0   42.5ms  182.1ms  228.1ms    0.00315
  bg                          8       240       240       0       0    2.5ms    2.9ms    3.0ms          0
  fleet                      32       508       508       0       0    7.2ms  159.3ms  199.9ms    0.00166
  tier gw-a->core               0.4 Gb/s fair-share util   3.9%  xfers 128  prop 200µs  fwd 0.233J  down 3.40s
  tier gw-b->core               0.4 Gb/s fair-share util   3.9%  xfers 140  prop 200µs  fwd 0.592J  cpu 4xfifo util  49.3% wait-p95 92.7ms
  tier core                     0.8 Gb/s fair-share util   5.9%  xfers 508  prop 2.0ms  fwd 0.355J
  energy camera 0.845J + network 1.18J = 0.3W avg, projected 0.3W
  dynamics events 2  joined 0  left 0  rehomed 48  outage-drops 0
  policy east            energy-latency    moves   12  final raw:24 cam:0
`},
		{"global", rehomePricing(59, 10, 1, 20, &GlobalConfig{EpochSec: 0.5, BudgetW: 0.3, HighSec: 0.08, MoveFraction: 0.5}), `scenario rehome-pricing               uplink 0.8 Gb/s fair-share util   6.5%  drained 6.00s
  class                    cams  captured   offload   dropQ   dropE      p50      p95      p99    J/frame
  east                       24       297       297       0       0   57.2ms   68.3ms   93.1ms     0.0029
  bg                          8       240       240       0       0    2.5ms    2.7ms    3.0ms          0
  fleet                      32       537       537       0       0    7.2ms   61.1ms   74.5ms     0.0016
  tier gw-a->core               0.4 Gb/s fair-share util   3.8%  xfers 133  prop 200µs  fwd 0.228J  down 3.40s
  tier gw-b->core               0.4 Gb/s fair-share util   5.2%  xfers 164  prop 200µs  fwd 0.779J  cpu 4xfifo util  32.5% wait-p95 12.3ms
  tier core                     0.8 Gb/s fair-share util   6.5%  xfers 537  prop 2.0ms  fwd 0.39J
  energy camera 0.861J + network 1.4J = 0.4W avg, projected 0.3W
  dynamics events 2  joined 0  left 0  rehomed 48  outage-drops 0
  global budget 0.3W  epochs 11  moves 20
    epoch t=0.50s 0.5W -> 0.4W  energy east-1x12
    epoch t=1.00s 0.4W -> 0.4W  energy east-1x8
  policy east            energy-latency    moves    4  final raw:24 cam:0
`},
	} {
		res, err := Run(tc.sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := res.Table(); got != tc.want {
			t.Errorf("%s: table moved.\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// TestDynamicsHarvestChurn pins the table of a harvesting class under
// recurring joins and leaves. Each joiner starts with its own full store
// from its join time and drains it independently; a joiner that shared
// or skipped a store, or topped one up from the wrong instant, moves the
// energy drops, the captured counts and J/frame.
func TestDynamicsHarvestChurn(t *testing.T) {
	sc := dynamicsDemo(13)
	sc.Tiers[0].Uplink.Gbps = 0.02
	sc.Tiers[1].Uplink.Gbps = 0.02
	sc.Tiers[2].Uplink.Gbps = 0.05
	sc.Classes = []Class{
		{Name: "bg", Count: 6, FPS: 4, FrameBytes: 20_000, Tier: "gw-b", QueueDepth: 4},
		{Name: "solar", Count: 8, FPS: 8, Arrival: ArrivalPoisson, FrameBytes: 20_000,
			OffloadProb: 0.7, ComputeSeconds: 0.004, Tier: "gw-a", QueueDepth: 3,
			CaptureJ: 1e-3, ComputeJ: 2e-3, TxFixedJ: 1e-3, TxPerByteJ: 1e-7,
			HarvestW: 0.02, StoreJ: 0.04},
	}
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 0.5, Kind: DynCameraJoin, Class: "solar", Count: 2, EverySec: 0.8},
		{Time: 1.0, Kind: DynCameraLeave, Class: "solar", EverySec: 1.2},
	}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	assertConserved(t, sc.Name, res)
	const want = `scenario dynamics-demo                uplink 0.1 Gb/s fair-share util  26.9%  drained 8.01s
  class                    cams  captured   offload   dropQ   dropE      p50      p95      p99    J/frame
  bg                          6       192       192       0       0   11.2ms   15.8ms   18.2ms          0
  solar                      24      1144       482       0     349   19.3ms   42.3ms   55.1ms    0.00335
  fleet                      30      1336       674       0     349   15.9ms   39.3ms   53.1ms    0.00287
  tier gw-a->core               0.0 Gb/s fair-share util  48.1%  xfers 482
  tier gw-b->core               0.0 Gb/s fifo       util  19.2%  xfers 192
  tier core                     0.1 Gb/s fair-share util  26.9%  xfers 674
  dynamics events 2  joined 22  left 6  rehomed 0  outage-drops 0
`
	if got := res.Table(); got != want {
		t.Errorf("table moved.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCameraStructuresNeverRegrow runs schedules that add cameras and
// checks that the camera slab, the harvest table, the departure bitmap and
// every class's camera list end the run at the capacities newEngine gave
// them, and that the slab is exactly full: the replay of the joins counted
// every camera the run added, and no more. The bitmap holds a bit for
// every camera of the slab when the schedule has a leave, and is nil
// otherwise. Each periodic class's ring, which holds at most one capture
// per camera the class ever had, is sized for exactly those cameras. The
// event queue's owner index is sized once for every owner
// (TestNewIndexIsSizedOnce).
func TestCameraStructuresNeverRegrow(t *testing.T) {
	harvest := dynamicsDemo(13)
	harvest.Classes = []Class{
		{Name: "bg", Count: 6, FPS: 4, FrameBytes: 20_000, Tier: "gw-b", QueueDepth: 4},
		{Name: "solar", Count: 8, FPS: 8, Arrival: ArrivalPoisson, FrameBytes: 20_000,
			OffloadProb: 0.7, Tier: "gw-a", QueueDepth: 3, CaptureJ: 1e-3, HarvestW: 0.02, StoreJ: 0.04},
	}
	harvest.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 0.5, Kind: DynCameraJoin, Class: "solar", Count: 2, EverySec: 0.8},
		{Time: 1.0, Kind: DynCameraLeave, Class: "solar", EverySec: 1.2},
		{Time: 2.0, Kind: DynCameraJoin, Class: "bg", Count: 3, EverySec: 0.3},
	}}
	// A Poisson class under recurring churn and rate steps: every join,
	// leave and step redraws its pending arrival, and none may leave a
	// stale one behind.
	poisson := dynamicsDemo(7)
	poisson.Classes[0].Arrival = ArrivalPoisson
	poisson.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 0.5, Kind: DynCameraJoin, Class: "east", Count: 2, EverySec: 0.4},
		{Time: 0.7, Kind: DynCameraLeave, Class: "east", Count: 2, EverySec: 0.5},
		{Time: 1, Kind: DynFPSProfile, Class: "east", Multiplier: 3},
		{Time: 3, Kind: DynFPSProfile, Class: "east", Multiplier: 0.5},
		{Time: 5, Kind: DynFPSProfile, Class: "east", Multiplier: 2},
	}}
	oneShot := dynamicsDemo(3)
	oneShot.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 2, Kind: DynCameraJoin, Class: "west", Count: 5},
	}}
	late := dynamicsDemo(3)
	late.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 1, Kind: DynCameraJoin, Class: "east", Count: 2, EverySec: 0.5},
		{Time: 9, Kind: DynCameraJoin, Class: "west", Count: 3, EverySec: 0.5},
	}}
	for name, sc := range map[string]Scenario{"harvest": harvest, "poisson": poisson, "one-shot": oneShot, "late": late,
		"churn-fleet": churnFleetScenario(), "periodic-churn": periodicChurn()} {
		e, err := newEngine(sc)
		if err != nil {
			t.Fatal(err)
		}
		caps := func() []int {
			c := []int{cap(e.cams), cap(e.harvest), cap(e.departed)}
			for _, cc := range e.classCams {
				c = append(c, cap(cc))
			}
			for _, r := range e.events.rings {
				c = append(c, cap(r.q))
			}
			return c
		}
		before := caps()
		e.loop()
		res := e.result()
		if after := caps(); !slices.Equal(after, before) {
			t.Errorf("%s: capacities (cameras, harvest, departures, class lists, rings) went from %v to %v", name, before, after)
		}
		leaves := slices.ContainsFunc(sc.Dynamics.Events, func(ev FleetEvent) bool { return ev.Kind == DynCameraLeave })
		if words := (cap(e.cams) + 63) / 64; leaves != (e.departed != nil) || leaves && len(e.departed) != words {
			t.Errorf("%s: departure bitmap of %d words (nil %v) for %d cameras, schedule has a leave: %v",
				name, len(e.departed), e.departed == nil, cap(e.cams), leaves)
		}
		if len(e.cams) != cap(e.cams) || res.Dynamics.Joined == 0 {
			t.Errorf("%s: %d cameras (%d joined) in a slab built for %d", name, len(e.cams), res.Dynamics.Joined, cap(e.cams))
		}
		if len(e.rows) != cap(e.rows) {
			t.Errorf("%s: %d rows in a table built for %d", name, len(e.rows), cap(e.rows))
		}
		for ci, r := range e.events.rings {
			st := res.Classes[ci]
			if had := len(r.q); e.sc.Classes[ci].Arrival == ArrivalPeriodic && had != st.Cameras+int(st.Left) {
				t.Errorf("%s: class %s's ring holds %d entries for %d cameras", name, st.Name, had, st.Cameras+int(st.Left))
			}
		}
	}
}

// TestScheduleCursorKeepsTieOrder pins the order of a schedule entry that
// ties, to the bit, with a control tick armed during the run. The entry
// is pushed only when the one before it fires, but under the scheduling
// number reserved for it before the run, so it still fires ahead of the
// tick, as it would with the whole schedule pushed up front: the leave
// at 1.0 shrinks class c before its controller sizes that decision's
// batch.
func TestScheduleCursorKeepsTieOrder(t *testing.T) {
	sc := dynamicsDemo(3)
	sc.Duration = 2
	sc.Classes = []Class{
		{Name: "c", Count: 8, FPS: 4, Tier: "gw-a",
			Placements: []PlacementCost{{Name: "raw", FrameBytes: 100}, {Name: "cam", FrameBytes: 10}},
			Policy:     PolicyConfig{Kind: PolicyLatencyThreshold, IntervalSec: 0.5, HighSec: 1e-9, MoveFraction: 0.5}},
		{Name: "d", Count: 2, FPS: 1, FrameBytes: 100, Tier: "gw-b"},
	}
	sc.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 0.9, Kind: DynFPSProfile, Class: "d", Multiplier: 1},
		{Time: 1.0, Kind: DynCameraLeave, Class: "c", Count: 4},
	}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Classes[0].Switches; got != 7 {
		t.Errorf("class c switched %d cameras, want 7", got)
	}
}
