package fleet

import (
	"fmt"
	"math"
	"slices"
)

// DynamicsConfig is the optional "dynamics" scenario section: a
// time-ordered schedule of fleet events — churn, link degradation, tier
// outages with camera re-homing, diurnal rate profiles and scheduled
// core-count changes — executed inside the single sequential event loop.
// Absent (or present with an empty event list), results are byte-identical
// to every release before the section existed.
type DynamicsConfig struct {
	// Events is the fault/load schedule, in non-decreasing time order.
	// Each entry fires once at its time; churn entries with EverySec > 0
	// additionally re-fire with seeded exponential inter-arrival gaps
	// until the scenario's Duration.
	Events []FleetEvent `json:"events"`
}

// FleetEvent is one scheduled fleet change. Kind selects which of the
// per-kind fields apply; fields that do not belong to the kind must be
// left zero (validation rejects misplaced ones — a knob on the wrong
// event must not silently do nothing).
type FleetEvent struct {
	// Time is the simulated second the event fires at.
	Time float64 `json:"time_sec"`
	// Kind is one of the Dyn* event kind names below.
	Kind string `json:"kind"`

	// Class names the affected camera class (camera_join, camera_leave,
	// fps_profile).
	Class string `json:"class,omitempty"`
	// Count is how many cameras join or leave per firing; 0 is
	// normalized to 1 (camera_join, camera_leave).
	Count int `json:"count,omitempty"`
	// EverySec > 0 makes a churn entry recurring: after each firing the
	// next is drawn as an exponential gap with this mean, from the
	// entry's own seeded stream — a seed family of its own, so recurring
	// churn never perturbs frame-traffic draws (camera_join,
	// camera_leave).
	EverySec float64 `json:"every_sec,omitempty"`

	// Tier names the affected tier (link_degrade, link_restore,
	// tier_outage, tier_recover, compute_scale).
	Tier string `json:"tier,omitempty"`
	// Factor scales the tier's uplink capacity: served progress up to the
	// event is conserved, the remaining bytes continue at base × Factor.
	// 0 is a full link outage — traffic stalls until a restore
	// (link_degrade).
	Factor float64 `json:"factor,omitempty"`
	// Fallback names the tier the outaged tier's directly attached
	// classes re-home to for the outage's duration; they re-home back on
	// recovery. Required when any class attaches at the tier
	// (tier_outage).
	Fallback string `json:"fallback,omitempty"`

	// Multiplier rescales the class's capture rate (its FPS) from this
	// time on — piecewise-constant diurnal/bursty load (fps_profile). The
	// new rate holds at once: a Poisson class redraws its pending arrival,
	// and a periodic class's clock runs Multiplier times as fast as its
	// declared rate, so what is left of each camera's pending period
	// scales by the old multiplier over the new.
	Multiplier float64 `json:"multiplier,omitempty"`
	// Cores is the tier core pool's new size (compute_scale).
	Cores int `json:"cores,omitempty"`
}

// Dynamics event kind names.
const (
	// DynCameraJoin adds Count cameras to Class at the event time. New
	// cameras continue the global camera-seed sequence, so existing
	// cameras' streams are untouched.
	DynCameraJoin = "camera_join"
	// DynCameraLeave retires Count cameras of Class, drawn from the
	// entry's seeded stream. In-flight frames of a departed camera still
	// complete; it just captures nothing further.
	DynCameraLeave = "camera_leave"
	// DynLinkDegrade rescales Tier's uplink capacity to base × Factor,
	// conserving in-flight progress; Factor 0 stalls the link outright.
	DynLinkDegrade = "link_degrade"
	// DynLinkRestore returns Tier's uplink to its base capacity.
	DynLinkRestore = "link_restore"
	// DynTierOutage takes Tier down: in-flight transfers through its
	// uplink (and core pool) are dropped and accounted as outage losses,
	// frames arriving while it is down are dropped on arrival, and
	// directly attached classes re-home to Fallback.
	DynTierOutage = "tier_outage"
	// DynTierRecover brings Tier back: downtime stops accruing and the
	// classes whose home it is re-home back.
	DynTierRecover = "tier_recover"
	// DynFPSProfile sets Class's capture-rate multiplier to Multiplier.
	DynFPSProfile = "fps_profile"
	// DynComputeScale resizes Tier's core pool to Cores.
	DynComputeScale = "compute_scale"
)

// normalize fills the section's defaulted fields in place (idempotent):
// a churn entry's unset Count means one camera per firing.
func (d *DynamicsConfig) normalize() {
	for i := range d.Events {
		if e := &d.Events[i]; e.countless() {
			e.Count = 1
		}
	}
}

// countless reports whether e is a churn entry whose Count normalize
// fills in: the only write normalize makes into the schedule.
func (e FleetEvent) countless() bool { return e.churns() && e.Count == 0 }

// churns reports whether e is a churn entry, a camera_join or a
// camera_leave: the only kinds that draw from a stream.
func (e *FleetEvent) churns() bool { return e.Kind == DynCameraJoin || e.Kind == DynCameraLeave }

// dynRef is one schedule entry's names as validation resolved them: its
// class, tier and fallback tier indices, each -1 where the kind has none.
// Validation builds one per entry on every parse and every run, so the
// indices are int32, like the engine's camera and class ids.
type dynRef struct{ class, tier, fall int32 }

// maxJoiners is the most cameras a schedule's joins may add, first and
// recurring firings together: the engine sizes every camera structure for
// them before the run.
const maxJoiners = 1 << 22

// validateDynamics checks the dynamics schedule against what validate
// has resolved (the tier tree, the class name index and each class's
// attach tier), the tier name index and the declared camera total: known
// kinds, finite non-decreasing times, resolvable classes and tiers, in-range
// factors, joins that add at most maxJoiners cameras and keep the camera
// ids inside int32, per-tier outage/recover alternation, and a usable
// fallback for every outage that strands attached cameras. Each kind also
// rejects the other kinds' knobs — a misplaced field must fail, not
// silently do nothing. It returns each entry's resolved names, which the
// run reads instead of looking them up again, and the cameras the joins
// add to each class (nil without a schedule).
func (sc *Scenario) validateDynamics(rv *resolved, tiers map[string]int, cameras int) ([]dynRef, []int, error) {
	d := sc.Dynamics
	if d == nil || len(d.Events) == 0 {
		return nil, nil, nil
	}
	if sc.Federated != nil {
		return nil, nil, fmt.Errorf("fleet: scenario %q: dynamics cannot combine with a federated job (dropping a round's blobs in an outage would deadlock its barrier)", sc.Name)
	}
	refs := make([]dynRef, len(d.Events))
	declared := cameras
	down := make(map[int]bool, 2)
	prev := 0.0
	for i := range d.Events {
		e, ref := &d.Events[i], &refs[i]
		*ref = dynRef{class: -1, tier: -1, fall: -1}
		bad := func(format string, args ...any) error {
			return fmt.Errorf("fleet: scenario %q: dynamics event %d (%s): %s",
				sc.Name, i, e.Kind, fmt.Sprintf(format, args...))
		}
		if !(e.Time >= 0) || math.IsInf(e.Time, 0) {
			return nil, nil, bad("time %v sec must be finite and non-negative", e.Time)
		}
		if e.Time < prev {
			return nil, nil, bad("time %v sec before the previous event's %v (the schedule must be time-ordered)", e.Time, prev)
		}
		prev = e.Time
		churn := e.churns()
		if !churn && (e.Count != 0 || e.EverySec != 0) {
			return nil, nil, bad("count/every_sec belong to %s and %s only", DynCameraJoin, DynCameraLeave)
		}
		if !churn && e.Kind != DynFPSProfile && e.Class != "" {
			return nil, nil, bad("class belongs to %s, %s and %s only", DynCameraJoin, DynCameraLeave, DynFPSProfile)
		}
		if e.Kind != DynLinkDegrade && e.Factor != 0 {
			return nil, nil, bad("factor belongs to %s only", DynLinkDegrade)
		}
		if e.Kind != DynTierOutage && e.Fallback != "" {
			return nil, nil, bad("fallback belongs to %s only", DynTierOutage)
		}
		if e.Kind != DynFPSProfile && e.Multiplier != 0 {
			return nil, nil, bad("multiplier belongs to %s only", DynFPSProfile)
		}
		if e.Kind != DynComputeScale && e.Cores != 0 {
			return nil, nil, bad("cores belongs to %s only", DynComputeScale)
		}
		// Each kind names a class or a tier, resolved here once for the run.
		switch e.Kind {
		case DynCameraJoin, DynCameraLeave, DynFPSProfile:
			if e.Tier != "" {
				return nil, nil, bad("tier belongs to the link and tier kinds")
			}
			ci, ok := rv.names[e.Class]
			if !ok {
				return nil, nil, bad("unknown class %q", e.Class)
			}
			ref.class = int32(ci)
		case DynLinkDegrade, DynLinkRestore, DynTierOutage, DynTierRecover, DynComputeScale:
			ti, ok := tiers[e.Tier]
			if !ok {
				return nil, nil, bad("unknown tier %q", e.Tier)
			}
			ref.tier = int32(ti)
		default:
			return nil, nil, bad("unknown event kind")
		}
		switch ti := int(ref.tier); e.Kind {
		case DynCameraJoin, DynCameraLeave:
			if e.Count <= 0 {
				return nil, nil, bad("count %d must be positive", e.Count)
			}
			// Joined cameras take the ids after the declared ones. Each
			// entry's first firing counts here, and replayJoins bounds the
			// re-firings.
			if e.Kind == DynCameraJoin {
				if e.Count > math.MaxInt32-cameras {
					return nil, nil, bad("count %d makes more than %d cameras", e.Count, math.MaxInt32)
				}
				cameras += e.Count
			}
			if !(e.EverySec >= 0) || math.IsInf(e.EverySec, 0) {
				return nil, nil, bad("every_sec %v must be finite and non-negative", e.EverySec)
			}
		case DynLinkDegrade:
			if !(e.Factor >= 0) || math.IsInf(e.Factor, 0) {
				return nil, nil, bad("factor %v out of range (a capacity scale must be finite and non-negative; 0 is an outage)", e.Factor)
			}
		case DynTierOutage:
			if ti == rv.root {
				return nil, nil, bad("the root tier cannot fail (degrade its link to factor 0 instead)")
			}
			if down[ti] {
				return nil, nil, bad("tier %q is already down", e.Tier)
			}
			down[ti] = true
			if e.Fallback == "" && slices.Contains(rv.attach, ti) {
				return nil, nil, bad("tier %q has attached classes and needs a fallback to re-home them to", e.Tier)
			}
			if e.Fallback != "" {
				fb, ok := tiers[e.Fallback]
				if !ok {
					return nil, nil, bad("unknown fallback tier %q", e.Fallback)
				}
				if fb == ti {
					return nil, nil, bad("fallback %q is the failing tier itself", e.Fallback)
				}
				for li := fb; li >= 0; li = rv.nodes[li].parent {
					if li == ti {
						return nil, nil, bad("fallback %q offloads through the failing tier %q", e.Fallback, e.Tier)
					}
				}
				ref.fall = int32(fb)
			}
		case DynTierRecover:
			if !down[ti] {
				return nil, nil, bad("tier %q is not down", e.Tier)
			}
			down[ti] = false
		case DynFPSProfile:
			if !(e.Multiplier > 0) || math.IsInf(e.Multiplier, 0) {
				return nil, nil, bad("multiplier %v must be positive and finite", e.Multiplier)
			}
		case DynComputeScale:
			if rv.nodes[ti].Compute == nil {
				return nil, nil, bad("tier %q has no compute section to scale", e.Tier)
			}
			if e.Cores <= 0 {
				return nil, nil, bad("cores %d must be positive", e.Cores)
			}
		}
	}
	joiners, err := sc.replayJoins(refs, declared)
	return refs, joiners, err
}

// replayJoins runs the schedule's joins ahead of the run and returns the
// cameras they add to each class. An entry's first firing always runs; a
// recurring one fires again at next's times while they fall before
// Duration (arm); and nothing else draws from a join entry's stream
// (churnStream). So a replay on its own copy of the stream counts exactly
// the run's joins. It rejects joins that add more
// than maxJoiners cameras, stopping at the firing that passes the bound,
// or whose re-firings take the camera ids past int32 after the declared
// cameras.
func (sc *Scenario) replayJoins(refs []dynRef, declared int) ([]int, error) {
	joiners := make([]int, len(sc.Classes))
	joined := 0
	for i := range sc.Dynamics.Events {
		ev := &sc.Dynamics.Events[i]
		if ev.Kind != DynCameraJoin {
			continue
		}
		t, rng := ev.Time, churnStream(sc.Seed, i)
		for {
			if ev.Count > maxJoiners-joined {
				return nil, fmt.Errorf("fleet: scenario %q: dynamics event %d (%s): joins add more than %d cameras", sc.Name, i, ev.Kind, maxJoiners)
			}
			joiners[refs[i].class] += ev.Count
			joined += ev.Count
			if ev.EverySec == 0 {
				break
			}
			if t = ev.next(t, &rng); !(t < sc.Duration) {
				break
			}
		}
	}
	if joined > math.MaxInt32-declared {
		return nil, fmt.Errorf("fleet: scenario %q: %d declared cameras and %d joiners make more than %d cameras", sc.Name, declared, joined, math.MaxInt32)
	}
	return joiners, nil
}

// DynamicsStats is the run-wide accounting of the dynamics schedule; set
// on Result.Dynamics only when the scenario carries a non-empty schedule.
// Per-tier downtime and outage drops land on TierStats; per-class churn
// and outage-drop counters on ClassStats, and the counts below are their
// sums, Result.Total's.
type DynamicsStats struct {
	// Events is the schedule length (recurring firings not counted).
	Events int
	// Joined and Left count cameras added and retired by churn.
	Joined, Left int64
	// Rehomed counts camera re-homings (outage and recovery directions
	// both; a camera re-homed out and back counts twice).
	Rehomed int64
	// DroppedOutage counts frames lost to outages fleet-wide: in-flight
	// transfers through a failing tier, arrivals at a down tier, and
	// transfers stalled forever on a never-restored zero-capacity link.
	DroppedOutage int64
}

// dynamics is the live fault-schedule state of one run, created only for
// a non-empty schedule so every other run bypasses it entirely.
type dynamics struct {
	events []FleetEvent
	refs   []dynRef // per-entry names, as validation resolved them
	// churn lists the churn entries' indices in schedule order, and rngs
	// their streams (seedDynamics family, by entry index): no other kind
	// draws, so no other entry owns one.
	churn []int32
	rngs  []prng
	// seq0 is the scheduling number reserved for entry 0's first firing;
	// entry i's is seq0+i (engine.schedule). own is the schedule cursor's
	// owner in the event queue, and the k-th churn entry's re-firings are
	// owner own+1+k's.
	seq0 int64
	own  int32

	// Per-tier availability: down is 1 while the tier is out and 0 while
	// it serves, so its integral is the tier's downtime; capacity is its
	// uplink's degradation factor, whose integral telemetry windows read
	// as their mean available-capacity fraction. The nominal capacity is
	// the engine's link table's.
	down, capacity []level
	outageDrops    []int64

	// home is each class's attach tier, as validation resolved it: its
	// first hop before any outage, and the one it re-homes back to on
	// recovery.
	home []int
}

// level is a piecewise-constant quantity over simulated time: its value
// v since the time since, and its integral up to then.
type level struct{ v, since, integral float64 }

// set changes the level to v at time t, accruing the outgoing value's
// integral first.
func (l *level) set(t, v float64) {
	l.integral += float64(l.v * (t - l.since))
	l.since, l.v = t, v
}

// at projects the integral forward to time t, which must not precede
// the last set.
func (l *level) at(t float64) float64 { return l.integral + float64(l.v*(t-l.since)) }

// next returns the time a recurring churn entry fires again after a
// firing at t: an exponential gap of mean EverySec, drawn from the
// entry's stream rng. The conversion rounds the gap before the sum, so
// no architecture fuses the two into one rounding, and the run and its
// replay compute the same bits.
func (ev *FleetEvent) next(t float64, rng *prng) float64 {
	return t + float64(rng.ExpFloat64()*ev.EverySec)
}

// churnStream seeds schedule entry i's churn stream, for the run and for
// the replay of its joins alike.
func churnStream(seed int64, i int) prng { return newPRNG(streamSeed(seed, seedDynamics, i)) }

// stream returns churn entry i's stream.
func (dyn *dynamics) stream(i int) *prng {
	k, _ := slices.BinarySearch(dyn.churn, int32(i))
	return &dyn.rngs[k]
}

// owner returns the owner of churn entry i's re-firings.
func (dyn *dynamics) owner(i int) int32 {
	k, _ := slices.BinarySearch(dyn.churn, int32(i))
	return dyn.own + 1 + int32(k)
}

// newDynamics builds the schedule's live state for a tree of tiers
// nodes: the entries' names as validation resolved them (refs), and each
// class's home tier, its attach tier.
func newDynamics(sc *Scenario, refs []dynRef, tiers int, attach []int) *dynamics {
	evs := sc.Dynamics.Events
	churn := 0
	for i := range evs {
		if evs[i].churns() {
			churn++
		}
	}
	dyn := &dynamics{
		events:      evs,
		refs:        refs,
		churn:       make([]int32, 0, churn),
		rngs:        make([]prng, 0, churn),
		down:        make([]level, tiers),
		capacity:    make([]level, tiers),
		outageDrops: make([]int64, tiers),
		home:        attach,
	}
	for ti := range dyn.capacity {
		dyn.capacity[ti].v = 1
	}
	// A stream is seeded by its entry's index in the whole schedule, not
	// by its rank among the churn entries.
	for i := range evs {
		if evs[i].churns() {
			dyn.churn = append(dyn.churn, int32(i))
			dyn.rngs = append(dyn.rngs, churnStream(sc.Seed, i))
		}
	}
	return dyn
}
