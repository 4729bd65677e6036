package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"camsim/internal/core"
	"camsim/internal/energy"
	"camsim/internal/fleet/fl"
	"camsim/internal/platform"
	"camsim/internal/vr"
)

// Scenario describes one fleet simulation: a camera population, a network
// (a tier tree, or one of the two input forms Normalize rewrites into
// one), and a duration. See the package comment for the JSON form.
type Scenario struct {
	Name     string  `json:"name"`
	Seed     int64   `json:"seed"`
	Duration float64 `json:"duration_sec"` // simulated seconds of capture
	// Uplink is an input form: without Tiers, the shared top-tier link
	// (the whole network of the flat form). Normalize moves it into the
	// root tier "wan" and zeroes it; beside Tiers it may only restate the
	// root tier's uplink, and is dropped. Edit Tiers after ParseScenario.
	Uplink UplinkConfig `json:"uplink"`
	// Gateways is an input form: without Tiers, the camera→gateway links
	// of a two-tier network, each feeding the shared Uplink. Normalize
	// rewrites them into leaf tiers under the root "wan", in order, and
	// sets Gateways to nil. Mutually exclusive with Tiers.
	Gateways []Gateway `json:"gateways,omitempty"`
	// Tiers is the network every run simulates: an arbitrary-depth tier
	// tree in which each tier names its parent (one root leaves it empty),
	// carries its own uplink and a one-way propagation delay, and a
	// transfer rides every link from its class's attach point (Class.Tier)
	// to the root. After Normalize it is never empty.
	Tiers   []Tier  `json:"tiers,omitempty"`
	Classes []Class `json:"classes"`
	// Global, when present, runs the fleet-wide energy-aware placement
	// controller: on a seeded epoch tick it sees every class's window
	// stats, scores placements on per-frame energy (camera-side transmit
	// plus per-hop forwarding along the tier tree), and reassigns cameras
	// so the fleet's projected placement power stays under BudgetW.
	Global *GlobalConfig `json:"global,omitempty"`
	// Federated, when present, runs a round-structured federated-learning
	// job over the tier tree: participating cameras push update blobs up
	// their attach tier's uplink, tiers aggregate fan-in blobs to one per
	// round, and the cloud broadcasts the merged model down the tree's
	// downlinks to start the next round. Requires a downlink on every
	// tier of the broadcast span, which only the "tiers" form declares.
	Federated *fl.Config `json:"federated,omitempty"`
	// Telemetry, when present, opts the run into streaming statistics:
	// bounded-memory quantile sketches in place of exact per-class
	// latency sample sets, and (with a window) a per-window time series.
	// Absent, results are byte-identical to every release before the
	// section existed.
	Telemetry *TelemetryConfig `json:"telemetry,omitempty"`
	// Dynamics, when present with a non-empty schedule, injects
	// time-ordered fleet events into the run: camera churn, link
	// degradation, tier outages with re-homing, capture-rate profiles
	// and core-pool resizes. Absent — or present with an empty event
	// list — results are byte-identical to every release before the
	// section existed.
	Dynamics *DynamicsConfig `json:"dynamics,omitempty"`
}

// UplinkConfig sizes one shared link and names its contention model.
type UplinkConfig struct {
	Gbps       float64 `json:"gbps"`
	Contention string  `json:"contention"` // ContentionFairShare (default) or ContentionFIFO
}

// Gateway is one edge aggregation point of the "gateways" input form: the
// cameras attached to it share its camera→gateway uplink before their
// traffic enters the WAN tier. Normalize rewrites it into a Tier.
type Gateway struct {
	Name   string       `json:"name"`
	Uplink UplinkConfig `json:"uplink"`
}

// BytesPerSecond returns the uplink's payload capacity.
func (u UplinkConfig) BytesPerSecond() float64 { return u.Gbps * 1e9 / 8 }

// Class is a population of identical cameras.
type Class struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	FPS     float64 `json:"fps"`     // capture rate per camera
	Arrival string  `json:"arrival"` // "periodic" (default) or "poisson"

	// FrameBytes is the offload payload per transmitted frame; 0 means the
	// class never offloads (a fully in-camera decision pipeline).
	FrameBytes int64 `json:"frame_bytes"`
	// OffloadProb is the fraction of captured frames that produce an
	// offload (a progressive-filtering pipeline ships only survivors).
	// Zero with FrameBytes > 0 is normalized to 1.
	OffloadProb float64 `json:"offload_prob"`
	// ComputeSeconds is the in-camera processing time per frame; the
	// offload enters the uplink that long after capture.
	ComputeSeconds float64 `json:"compute_sec"`
	// QueueDepth caps a camera's in-flight offloads; a frame captured at
	// the cap is dropped (backpressure). Zero is normalized to 4.
	QueueDepth int `json:"queue_depth"`

	// Per-frame energy model, joules.
	CaptureJ   float64 `json:"capture_j"`
	ComputeJ   float64 `json:"compute_j"`
	TxFixedJ   float64 `json:"tx_fixed_j"`
	TxPerByteJ float64 `json:"tx_per_byte_j"`

	// HarvestW > 0 marks the class energy-harvesting: each camera owns a
	// store of StoreJ joules charged at HarvestW watts, and skips frames
	// the store cannot pay for.
	HarvestW float64 `json:"harvest_w"`
	StoreJ   float64 `json:"store_j"`

	// Gateway is an input synonym for Tier, from the "gateways" form.
	// Normalize moves it into Tier and clears it; one that disagrees with
	// Tier is rejected.
	Gateway string `json:"gateway,omitempty"`
	// Tier attaches the class's cameras to the named tier of
	// Scenario.Tiers; empty attaches them at the root.
	Tier string `json:"tier,omitempty"`

	// Placements, when non-empty, is the class's runtime cost table:
	// each camera holds a current placement index and uses that row's
	// frame bytes / compute time / compute energy instead of the
	// class-level FrameBytes, ComputeSeconds and ComputeJ. Order the rows
	// from most-offload (index 0) to most-in-camera (last): the adaptive
	// policies step indices up under congestion and down when idle.
	Placements []PlacementCost `json:"placements,omitempty"`
	// Policy controls how cameras move through Placements at runtime.
	Policy PolicyConfig `json:"policy,omitempty"`
}

// PlacementCost is one row of a class's runtime cost table — the fleet
// mirror of core.CostEntry, carrying the per-frame numbers the simulator
// charges while a camera holds this placement.
type PlacementCost struct {
	Name           string  `json:"name"`
	FrameBytes     int64   `json:"frame_bytes"`
	ComputeSeconds float64 `json:"compute_sec"`
	ComputeJ       float64 `json:"compute_j"`
}

// PolicyConfig is a class's adaptive-placement policy: every IntervalSec
// of simulated time a per-class controller looks at the offload latencies
// and queue drops observed since its last decision and moves a fraction of
// the class's cameras along the Placements table.
type PolicyConfig struct {
	// Kind selects the decision rule: PolicyStatic (default, never moves),
	// PolicyLatencyThreshold (one-way escalation toward in-camera compute
	// when the window p95 exceeds HighSec or frames were queue-dropped) or
	// PolicyHysteresis (two thresholds: above HighSec step toward
	// in-camera, below LowSec step back toward offload, hold in between).
	Kind string `json:"kind,omitempty"`
	// IntervalSec is the control period; 0 is normalized to 1.
	IntervalSec float64 `json:"interval_sec,omitempty"`
	// HighSec is the congestion threshold on window p95 offload latency.
	HighSec float64 `json:"high_sec,omitempty"`
	// LowSec is the idle threshold (hysteresis only); 0 is normalized to
	// HighSec/4.
	LowSec float64 `json:"low_sec,omitempty"`
	// MoveFraction is the fraction of the class moved per decision; 0 is
	// normalized to 0.25. Which cameras move is drawn from the scenario's
	// seeded controller stream.
	MoveFraction float64 `json:"move_fraction,omitempty"`
	// Start is the initial placement index of every camera in the class.
	Start int `json:"start,omitempty"`
	// EnergyWeight (energy-latency policy only) converts joules per frame
	// into comparable seconds of latency: the controller moves cameras
	// toward an adjacent placement when the weighted per-frame energy
	// saving outweighs the latency it risks re-adding. Zero disables every
	// energy-motivated move, leaving exactly the latency-threshold rule.
	EnergyWeight float64 `json:"energy_weight,omitempty"`
}

// GlobalConfig configures the fleet-wide energy-aware placement
// controller. It runs above the per-class policies on its own epoch tick:
// each epoch it recomputes the fleet's projected placement power — every
// camera's per-frame energy at its current placement row times its capture
// rate — and greedily reassigns cameras (cheapest watts first, most p95
// headroom first) until the projection fits BudgetW.
type GlobalConfig struct {
	// EpochSec is the controller's decision period; 0 is normalized to 1.
	EpochSec float64 `json:"epoch_sec,omitempty"`
	// BudgetW is the fleet-wide placement power budget in watts (camera
	// energy plus per-hop network forwarding). Required and positive.
	BudgetW float64 `json:"budget_w"`
	// HighSec marks a class congested when its epoch-window p95 offload
	// latency exceeds it: congested classes get latency-relief moves and
	// are exempt from energy shedding that epoch. 0 means never congested.
	HighSec float64 `json:"high_sec,omitempty"`
	// MoveFraction caps the fraction of any one class reassigned per
	// epoch; 0 is normalized to 0.25.
	MoveFraction float64 `json:"move_fraction,omitempty"`
}

// Placement policy names.
const (
	PolicyStatic           = "static"
	PolicyLatencyThreshold = "latency-threshold"
	PolicyHysteresis       = "hysteresis"
	// PolicyEnergyLatency extends latency-threshold with energy-motivated
	// moves: congestion still escalates toward in-camera compute, but in
	// the absence of congestion the controller walks cameras toward the
	// adjacent placement whose weighted per-frame energy saving (see
	// PolicyConfig.EnergyWeight) beats the observed p95 it would risk.
	PolicyEnergyLatency = "energy-latency"
)

// adaptive reports whether the class runs a placement controller.
func (c *Class) adaptive() bool {
	return len(c.Placements) > 0 && c.Policy.Kind != PolicyStatic
}

// rows is the class's per-frame cost table: Placements, or for a class
// without one a single row of its FrameBytes, ComputeSeconds and
// ComputeJ. Every reader of per-frame costs goes through it, so those
// class fields never price a frame of a class that has a table.
func (c *Class) rows() []PlacementCost {
	if len(c.Placements) > 0 {
		return c.Placements
	}
	return []PlacementCost{{FrameBytes: c.FrameBytes, ComputeSeconds: c.ComputeSeconds, ComputeJ: c.ComputeJ}}
}

// Arrival pattern names.
const (
	ArrivalPeriodic = "periodic"
	ArrivalPoisson  = "poisson"
)

// ParseScenario decodes, normalizes and validates a JSON scenario.
// Decoding is strict: an unknown field is an error, not silently ignored
// configuration — a misspelled knob in a scenario file must not run as if
// it were absent.
func ParseScenario(data []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("fleet: decoding scenario: %w", err)
	}
	// A scenario is one JSON object; trailing non-space content is a
	// second document, not padding.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Scenario{}, fmt.Errorf("fleet: decoding scenario: trailing data after the scenario object")
	}
	sc.Normalize()
	if _, err := sc.validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// clone returns a copy of sc that Normalize can write into without
// touching the caller's scenario: sc arrives by value, but its slices
// share backing arrays with the caller (and, under Sweep, with sibling
// scenarios), and its sections are shared pointers. Everything Normalize
// or a run writes through is re-backed. A run only reads the dynamics
// schedule, so it is re-backed only when normalize will fill a Count in.
func (sc Scenario) clone() Scenario {
	sc.Classes = append([]Class(nil), sc.Classes...)
	sc.Tiers = append([]Tier(nil), sc.Tiers...)
	for i := range sc.Tiers {
		sc.Tiers[i].Downlink = shallowCopy(sc.Tiers[i].Downlink)
		sc.Tiers[i].Compute = shallowCopy(sc.Tiers[i].Compute)
	}
	sc.Global = shallowCopy(sc.Global)
	sc.Telemetry = shallowCopy(sc.Telemetry)
	if sc.Dynamics != nil {
		sc.Dynamics = shallowCopy(sc.Dynamics)
		if slices.ContainsFunc(sc.Dynamics.Events, FleetEvent.countless) {
			sc.Dynamics.Events = slices.Clone(sc.Dynamics.Events)
		}
	}
	sc.Federated = sc.Federated.Clone()
	return sc
}

// shallowCopy returns a pointer to a copy of *p, or nil for nil.
func shallowCopy[T any](p *T) *T {
	if p == nil {
		return nil
	}
	c := *p
	return &c
}

// Normalize rewrites the network into its one runtime form, the tier
// tree, and fills defaulted fields in place: contention models (every
// tier), arrival pattern, queue depth, offload probability and the
// adaptive-policy knobs. It is idempotent.
//
// Without Tiers, the flat and "gateways" forms become the tree they
// always described: each gateway a leaf tier under the root "wan", in
// declaration order, and the root, carrying the top-level uplink, last —
// so link indices, and with them simultaneous-completion tie-breaks, are
// the ones these forms always had. Each class's Gateway moves into Tier.
// Input no tree expresses stays where it was, for validate to reject.
func (sc *Scenario) Normalize() {
	if len(sc.Tiers) == 0 && !sc.namesRoot() {
		sc.Tiers = make([]Tier, 0, len(sc.Gateways)+1)
		for _, gw := range sc.Gateways {
			sc.Tiers = append(sc.Tiers, Tier{Name: gw.Name, Parent: rootTierName, Uplink: gw.Uplink})
		}
		sc.Tiers = append(sc.Tiers, Tier{Name: rootTierName, Uplink: sc.Uplink})
		sc.Uplink, sc.Gateways = UplinkConfig{}, nil
	}
	if len(sc.Gateways) == 0 {
		sc.Gateways = nil
	}
	root := -1
	for i := range sc.Tiers {
		if sc.Tiers[i].Uplink.Contention == "" {
			sc.Tiers[i].Uplink.Contention = ContentionFairShare
		}
		if d := sc.Tiers[i].Downlink; d != nil && d.Contention == "" {
			d.Contention = ContentionFairShare
		}
		if cc := sc.Tiers[i].Compute; cc != nil {
			cc.normalize()
		}
		if sc.Tiers[i].Parent == "" && root < 0 {
			root = i
		}
	}
	// A top-level uplink beside "tiers" that restates the root's is
	// dropped; one that disagrees is left for validate to reject.
	if up := sc.Uplink; up != (UplinkConfig{}) && root >= 0 {
		if up.Contention == "" {
			up.Contention = ContentionFairShare
		}
		if up == sc.Tiers[root].Uplink {
			sc.Uplink = UplinkConfig{}
		}
	}
	for i := range sc.Classes {
		c := &sc.Classes[i]
		if c.Gateway != "" && (c.Tier == "" || c.Tier == c.Gateway) {
			c.Tier, c.Gateway = c.Gateway, ""
		}
		if c.Arrival == "" {
			c.Arrival = ArrivalPeriodic
		}
		if c.QueueDepth == 0 {
			c.QueueDepth = 4
		}
		if (c.FrameBytes > 0 || len(c.Placements) > 0) && c.OffloadProb == 0 {
			c.OffloadProb = 1
		}
		if len(c.Placements) > 0 {
			p := &c.Policy
			if p.Kind == "" {
				p.Kind = PolicyStatic
			}
			if p.IntervalSec == 0 {
				p.IntervalSec = 1
			}
			if p.MoveFraction == 0 {
				p.MoveFraction = 0.25
			}
			if p.Kind == PolicyHysteresis && p.LowSec == 0 {
				p.LowSec = p.HighSec / 4
			}
		}
	}
	if g := sc.Global; g != nil {
		if g.EpochSec == 0 {
			g.EpochSec = 1
		}
		if g.MoveFraction == 0 {
			g.MoveFraction = 0.25
		}
	}
	if sc.Federated != nil {
		sc.Federated.Normalize()
	}
	if sc.Dynamics != nil {
		sc.Dynamics.normalize()
	}
}

// namesRoot reports whether a flat or "gateways" scenario names the root
// its rewrite would synthesize — a gateway, or a class's tier or gateway,
// called "wan". Those forms have no name for their root (an empty attach
// name already means it), so no tier tree expresses such input.
func (sc *Scenario) namesRoot() bool {
	for _, gw := range sc.Gateways {
		if gw.Name == rootTierName {
			return true
		}
	}
	for _, c := range sc.Classes {
		if c.Tier == rootTierName || c.Gateway == rootTierName {
			return true
		}
	}
	return false
}

// validateUplink checks one link of tier name: its uplink (link "") or
// its declared downlink (link " downlink"). The link is named only in an
// error, so a valid link formats nothing.
func validateUplink(u UplinkConfig, name, link string) error {
	if !(u.Gbps > 0) || math.IsInf(u.Gbps, 0) {
		return fmt.Errorf("fleet: tier %q%s: uplink %v Gbps must be positive and finite", name, link, u.Gbps)
	}
	if u.Contention != ContentionFairShare && u.Contention != ContentionFIFO {
		return fmt.Errorf("fleet: tier %q%s: unknown contention model %q", name, link, u.Contention)
	}
	return nil
}

// Validate rejects scenarios the simulator cannot run. It checks sc as
// Run sees it: normalized, on a private copy.
func (sc *Scenario) Validate() error {
	c := sc.clone()
	c.Normalize()
	_, err := c.validate()
	return err
}

// resolved is what validate proves of a scenario, in the form the engine
// builds from: the tier tree and its root's index, the index of each
// class's name, each class's attach tier, the compute service plan
// (validateComputeNodes), the federated round engine (nil without a job)
// with the classes that join it, each dynamics schedule entry's names,
// and the cameras the schedule's joins add to each class. Every name is
// resolved here once: the engine looks none up, so it has no way to fail.
type resolved struct {
	nodes   []tierNode
	root    int
	names   map[string]int
	attach  []int
	plan    [][]float64
	fle     *fl.Engine
	joins   []bool
	refs    []dynRef
	joiners []int
}

// validate rejects a normalized scenario the simulator cannot run, and
// returns what it resolved on the way.
func (sc *Scenario) validate() (resolved, error) {
	// Legacy network input Normalize could not rewrite into the tree.
	switch {
	case len(sc.Tiers) == 0:
		return resolved{}, fmt.Errorf("fleet: scenario %q: name %q is reserved for the top tier of the \"uplink\" and \"gateways\" forms",
			sc.Name, rootTierName)
	case len(sc.Gateways) > 0:
		return resolved{}, fmt.Errorf("fleet: scenario %q: tiers and gateways are mutually exclusive", sc.Name)
	case sc.Uplink != (UplinkConfig{}):
		return resolved{}, fmt.Errorf("fleet: scenario %q: top-level uplink conflicts with the root tier; omit \"uplink\" when \"tiers\" is given",
			sc.Name)
	}
	for _, c := range sc.Classes {
		if c.Gateway != "" {
			return resolved{}, fmt.Errorf("fleet: class %q: tier %q and gateway %q disagree", c.Name, c.Tier, c.Gateway)
		}
	}

	if !(sc.Duration > 0) || math.IsInf(sc.Duration, 0) {
		return resolved{}, fmt.Errorf("fleet: scenario %q: duration %v must be positive and finite", sc.Name, sc.Duration)
	}
	var rv resolved
	var tiers map[string]int
	var err error
	if rv.nodes, rv.root, tiers, err = sc.topology(); err != nil {
		return resolved{}, err
	}
	if rv.attach, err = sc.validateTopologyNodes(rv.nodes, rv.root, tiers); err != nil {
		return resolved{}, err
	}
	// names indexes the classes by name, for service_sec entries,
	// federated participants and dynamics entries to resolve theirs
	// without a scan each. Filled back to front, it keeps the first class
	// of a repeated name, which the class checks below reject.
	rv.names = make(map[string]int, len(sc.Classes))
	for i := len(sc.Classes) - 1; i >= 0; i-- {
		rv.names[sc.Classes[i].Name] = i
	}
	if rv.plan, err = sc.validateComputeNodes(rv.nodes, rv.attach, rv.names); err != nil {
		return resolved{}, err
	}
	if len(sc.Classes) == 0 {
		return resolved{}, fmt.Errorf("fleet: scenario %q has no camera classes", sc.Name)
	}
	total := 0
	for i, c := range sc.Classes {
		// A name must mean one class: no class before this one may have it.
		if rv.names[c.Name] != i {
			return resolved{}, fmt.Errorf("fleet: scenario %q: duplicate class %q", sc.Name, c.Name)
		}
		if c.Count <= 0 {
			return resolved{}, fmt.Errorf("fleet: class %q: count %d must be positive", c.Name, c.Count)
		}
		if !(c.FPS > 0) || math.IsInf(c.FPS, 0) {
			return resolved{}, fmt.Errorf("fleet: class %q: fps %v must be positive and finite", c.Name, c.FPS)
		}
		if c.Arrival != ArrivalPeriodic && c.Arrival != ArrivalPoisson {
			return resolved{}, fmt.Errorf("fleet: class %q: unknown arrival pattern %q", c.Name, c.Arrival)
		}
		if c.FrameBytes < 0 || c.QueueDepth < 0 {
			return resolved{}, fmt.Errorf("fleet: class %q: negative frame bytes or queue depth", c.Name)
		}
		if !(c.ComputeSeconds >= 0) || math.IsInf(c.ComputeSeconds, 0) {
			return resolved{}, fmt.Errorf("fleet: class %q: compute time %v must be finite and non-negative", c.Name, c.ComputeSeconds)
		}
		if !(c.OffloadProb >= 0 && c.OffloadProb <= 1) {
			return resolved{}, fmt.Errorf("fleet: class %q: offload probability %v outside [0,1]", c.Name, c.OffloadProb)
		}
		for _, v := range [...]float64{c.CaptureJ, c.ComputeJ, c.TxFixedJ, c.TxPerByteJ, c.HarvestW, c.StoreJ} {
			if !(v >= 0) || math.IsInf(v, 0) {
				return resolved{}, fmt.Errorf("fleet: class %q: energy parameters, harvest power and store must be finite and non-negative", c.Name)
			}
		}
		if c.HarvestW > 0 && c.StoreJ == 0 {
			return resolved{}, fmt.Errorf("fleet: class %q: harvesting needs positive harvest power and store", c.Name)
		}
		if err := c.validatePlacements(); err != nil {
			return resolved{}, err
		}
		// Events and transfers name cameras by int32, and the check keeps
		// the running sum itself from overflowing.
		if c.Count > math.MaxInt32-total {
			return resolved{}, fmt.Errorf("fleet: scenario %q: more than %d cameras", sc.Name, math.MaxInt32)
		}
		total += c.Count
	}
	if total == 0 {
		return resolved{}, fmt.Errorf("fleet: scenario %q has no cameras", sc.Name)
	}
	if err := sc.validateGlobal(); err != nil {
		return resolved{}, err
	}
	if rv.fle, rv.joins, err = sc.validateFederated(&rv); err != nil {
		return resolved{}, err
	}
	if err := sc.validateTelemetry(); err != nil {
		return resolved{}, err
	}
	if rv.refs, rv.joiners, err = sc.validateDynamics(&rv, tiers, total); err != nil {
		return resolved{}, err
	}
	// Each class's cameras, joiners included, at its fastest rate over the
	// run must make at most maxCaptures captures.
	peak := make([]float64, len(sc.Classes)) // each class's largest multiplier
	for i, ref := range rv.refs {
		if ev := &sc.Dynamics.Events[i]; ev.Kind == DynFPSProfile {
			peak[ref.class] = max(peak[ref.class], ev.Multiplier)
		}
	}
	for ci, c := range sc.Classes {
		n, fps := c.Count, c.FPS*max(1, peak[ci])
		if rv.joiners != nil {
			n += rv.joiners[ci]
		}
		if float64(n)*fps*sc.Duration > maxCaptures {
			return resolved{}, fmt.Errorf("fleet: class %q: %d cameras at up to %g fps over %g sec make more than 2^40 captures",
				c.Name, n, fps, sc.Duration)
		}
	}
	return rv, nil
}

// maxCaptures bounds one class's captures in a run: its cameras, joiners
// included, times its fastest rate times Duration. At the bound a
// period, and a Poisson class's mean gap, still spans 2^12 units in the
// last place of the clock at the run's end. Past it precision is lost
// quietly, and near 2^52 a capture re-arms at the instant it fired, so
// the run never ends.
const maxCaptures = 1 << 40

// validateFederated checks the federated-learning section against the
// resolved tier tree and classes by building the round engine, and
// returns it with the classes that join the job: the engine the run uses
// is the one validation built, so the two cannot disagree about what is
// runnable.
func (sc *Scenario) validateFederated(rv *resolved) (*fl.Engine, []bool, error) {
	f := sc.Federated
	if f == nil {
		return nil, nil, nil
	}
	if err := f.Validate(); err != nil {
		return nil, nil, fmt.Errorf("fleet: scenario %q: %w", sc.Name, err)
	}
	if !slices.ContainsFunc(sc.Tiers, func(t Tier) bool { return t.Downlink != nil }) {
		return nil, nil, fmt.Errorf("fleet: scenario %q: federated learning needs a \"tiers\" topology with downlinks (the model broadcast rides them)", sc.Name)
	}
	topo, joins, err := sc.flTopology(rv)
	if err != nil {
		return nil, nil, err
	}
	fle, err := fl.NewEngine(*f, topo)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: scenario %q: %w", sc.Name, err)
	}
	return fle, joins, nil
}

// flTopology builds the federated engine's view of the resolved tier
// tree: names, parent pointers, downlink presence, and the participating
// camera census per attach tier. joins marks the participating classes:
// every class when Federated.Classes is empty, else exactly the named
// ones.
func (sc *Scenario) flTopology(rv *resolved) (topo fl.Topology, joins []bool, err error) {
	topo = fl.Topology{
		Names:   make([]string, len(rv.nodes)),
		Parent:  make([]int, len(rv.nodes)),
		Cams:    make([]int, len(rv.nodes)),
		HasDown: make([]bool, len(rv.nodes)),
		Root:    rv.root,
	}
	for i, nd := range rv.nodes {
		topo.Names[i] = nd.Name
		topo.Parent[i] = nd.parent
		topo.HasDown[i] = nd.Downlink != nil
	}
	named := sc.Federated.Classes
	joins = make([]bool, len(sc.Classes))
	for _, name := range named {
		ci, ok := rv.names[name]
		if !ok {
			return fl.Topology{}, nil, fmt.Errorf("fleet: scenario %q: federated class %q not in the scenario", sc.Name, name)
		}
		joins[ci] = true
	}
	for ci, c := range sc.Classes {
		if joins[ci] = joins[ci] || len(named) == 0; joins[ci] {
			topo.Cams[rv.attach[ci]] += c.Count
		}
	}
	return topo, joins, nil
}

// validateGlobal checks the fleet-wide controller configuration.
func (sc *Scenario) validateGlobal() error {
	g := sc.Global
	if g == nil {
		return nil
	}
	if !(g.BudgetW > 0) || math.IsInf(g.BudgetW, 0) {
		return fmt.Errorf("fleet: scenario %q: global budget %v W must be positive and finite", sc.Name, g.BudgetW)
	}
	if !(g.EpochSec > 0) || math.IsInf(g.EpochSec, 0) {
		return fmt.Errorf("fleet: scenario %q: global epoch %v sec must be positive and finite", sc.Name, g.EpochSec)
	}
	if !(g.HighSec >= 0) || math.IsInf(g.HighSec, 0) {
		return fmt.Errorf("fleet: scenario %q: global high_sec %v must be finite and non-negative", sc.Name, g.HighSec)
	}
	if !(g.MoveFraction > 0) || g.MoveFraction > 1 {
		return fmt.Errorf("fleet: scenario %q: global move fraction %v outside (0,1]", sc.Name, g.MoveFraction)
	}
	for _, c := range sc.Classes {
		if len(c.Placements) > 0 {
			return nil
		}
	}
	return fmt.Errorf("fleet: scenario %q: global controller with no placements table to reassign", sc.Name)
}

// validatePlacements checks the class's runtime cost table and policy.
func (c *Class) validatePlacements() error {
	p := &c.Policy
	if len(c.Placements) == 0 {
		if p.Kind != "" && p.Kind != PolicyStatic {
			return fmt.Errorf("fleet: class %q: policy %q without a placements table", c.Name, p.Kind)
		}
		return nil
	}
	for i, pc := range c.Placements {
		if pc.FrameBytes <= 0 {
			return fmt.Errorf("fleet: class %q: placement %d (%s) frame bytes %d must be positive",
				c.Name, i, pc.Name, pc.FrameBytes)
		}
		if !(pc.ComputeSeconds >= 0) || math.IsInf(pc.ComputeSeconds, 0) || !(pc.ComputeJ >= 0) || math.IsInf(pc.ComputeJ, 0) {
			return fmt.Errorf("fleet: class %q: placement %d (%s) compute cost must be finite and non-negative",
				c.Name, i, pc.Name)
		}
	}
	switch p.Kind {
	case PolicyStatic:
	case PolicyLatencyThreshold, PolicyHysteresis, PolicyEnergyLatency:
		if !(p.HighSec > 0) || math.IsInf(p.HighSec, 0) {
			return fmt.Errorf("fleet: class %q: policy %q needs a positive finite high_sec", c.Name, p.Kind)
		}
		if !(p.LowSec >= 0) || p.LowSec > p.HighSec {
			return fmt.Errorf("fleet: class %q: low_sec %v outside [0, high_sec %v]", c.Name, p.LowSec, p.HighSec)
		}
	default:
		return fmt.Errorf("fleet: class %q: unknown placement policy %q", c.Name, p.Kind)
	}
	if !(p.EnergyWeight >= 0) || math.IsInf(p.EnergyWeight, 0) {
		return fmt.Errorf("fleet: class %q: energy weight %v must be finite and non-negative", c.Name, p.EnergyWeight)
	}
	if !(p.IntervalSec > 0) || math.IsInf(p.IntervalSec, 0) {
		return fmt.Errorf("fleet: class %q: policy interval %v must be positive and finite", c.Name, p.IntervalSec)
	}
	if !(p.MoveFraction > 0) || p.MoveFraction > 1 {
		return fmt.Errorf("fleet: class %q: move fraction %v outside (0,1]", c.Name, p.MoveFraction)
	}
	if p.Start < 0 || p.Start >= len(c.Placements) {
		return fmt.Errorf("fleet: class %q: start placement %d outside table of %d", c.Name, p.Start, len(c.Placements))
	}
	return nil
}

// Cameras returns the total camera population.
func (sc *Scenario) Cameras() int {
	n := 0
	for _, c := range sc.Classes {
		n += c.Count
	}
	return n
}

// FaceAuthClass models the §III battery-free face-authentication camera as
// a fleet class. The per-frame energy comes from a core.EnergyPipeline
// assembled out of the internal/energy device models (streaming motion
// gate, Viola-Jones accelerator, accelerated NN over the multi-crop
// sweep); the offload is the 20×20 authentication chip shipped for frames
// that survive the whole chain, over the backscatter radio, on the
// harvested supply.
func FaceAuthClass(count int) Class {
	const (
		w, h  = 160, 120 // QVGA-class sensor, as in the E6 trace
		chipB = 20 * 20  // 8-bit authentication chip payload
	)
	sensor := energy.DefaultSensor()
	stream := energy.DefaultStreamAccel()
	vjAcc := energy.DefaultVJAccel()
	radio := energy.BackscatterRadio()
	harv := energy.DefaultHarvester()

	// Progressive filtering, E6 shape: the motion gate passes ~1 frame in
	// 5, detection finds a face on ~half of those, and every candidate face
	// is authenticated (15 crops through the accelerator, ~60 nJ each
	// including scaling — the cheap end of the chain).
	pixels := float64(w * h)
	ep := core.EnergyPipeline{
		CaptureEnergy: float64(sensor.CaptureEnergy(w, h)),
		Stages: []core.EnergyStage{
			{Name: "MD", EnergyPerFrame: pixels * float64(stream.MotionPerPixel), PassRate: 0.2},
			{Name: "VJ", EnergyPerFrame: float64(vjAcc.DetectEnergy(w*h, 40*int64(w*h)/100)), PassRate: 0.5},
			{Name: "NN", EnergyPerFrame: 15 * 60e-9, PassRate: 1},
		},
	}
	a, err := ep.Evaluate()
	if err != nil {
		panic(err) // constants above are valid by construction
	}
	computeJ := a.Total - a.Capture - a.Offload // radio cost is charged per offload below
	return Class{
		Name:           "faceauth",
		Count:          count,
		FPS:            1,
		Arrival:        ArrivalPoisson, // visits arrive, frames do not tick in lockstep
		FrameBytes:     chipB,
		OffloadProb:    a.OffloadShare,
		ComputeSeconds: 0.02,
		QueueDepth:     4,
		CaptureJ:       a.Capture,
		ComputeJ:       computeJ, // expected filtering energy per captured frame
		TxFixedJ:       radio.TxFixedJ(),
		TxPerByteJ:     radio.TxPerByteJ(),
		HarvestW:       float64(harv.HarvestPower),
		StoreJ:         float64(harv.UsableEnergy()),
	}
}

// VRDevicePowerWatts models the electrical draw of each Fig. 10
// implementation target while its block runs (ARM cores, discrete GPU,
// Zynq fabric).
var VRDevicePowerWatts = map[string]float64{"CPU": 5, "GPU": 60, "FPGA": 10}

// PaperVRPipeline assembles the Fig. 10 VR pipeline (paper byte model ×
// paper block throughputs) as a core.ThroughputPipeline, scaled to one
// camera's share of the 16-camera frame-set so a fleet node is a single
// camera head.
func PaperVRPipeline() *core.ThroughputPipeline {
	const rigCameras = 16
	m := vr.PaperByteModel()
	tp := platform.PaperThroughput()
	fps := func(block int, devs ...platform.Device) map[string]float64 {
		out := map[string]float64{}
		for _, d := range devs {
			out[d.String()] = tp.BlockFPS(block, d)
		}
		return out
	}
	return &core.ThroughputPipeline{
		SensorBytes: m.Sensor / rigCameras,
		Stages: []core.Stage{
			{Name: "B1", OutputBytes: m.B1 / rigCameras, FPS: fps(1, platform.CPU)},
			{Name: "B2", OutputBytes: m.B2 / rigCameras, FPS: fps(2, platform.CPU)},
			{Name: "B3", OutputBytes: m.B3 / rigCameras, FPS: fps(3, platform.CPU, platform.GPU, platform.FPGA)},
			{Name: "B4", OutputBytes: m.B4 / rigCameras, FPS: fps(4, platform.CPU, platform.GPU, platform.FPGA)},
		},
	}
}

// VRClass models one camera head of the §IV VR rig running the given
// Fig. 10 placement as a fleet class: per-frame compute time and offload
// payload come from the core cost hook, transmit energy from the WiFi
// radio, and compute energy from the placement's most power-hungry device
// running for the frame's compute time. Mains powered.
func VRClass(count int, pl core.Placement, targetFPS float64) (Class, error) {
	p := PaperVRPipeline()
	cost, err := p.Cost(pl)
	if err != nil {
		return Class{}, err
	}
	radio := energy.WiFiRadio()
	watts := 2.0 // sensor interface + ISP floor for a sensor-only node
	name := "vr-S"
	for i, impl := range pl.Impl {
		if w, ok := VRDevicePowerWatts[impl]; ok && w > watts {
			watts = w
		}
		// Fig. 10-style compact label: stage name plus device initial.
		name += p.Stages[i].Name + impl[:1]
	}
	return Class{
		Name:           name,
		Count:          count,
		FPS:            targetFPS,
		Arrival:        ArrivalPeriodic, // genlocked capture, staggered phases
		FrameBytes:     cost.OffloadBytes,
		OffloadProb:    1,
		ComputeSeconds: cost.ComputeSeconds,
		QueueDepth:     4,
		CaptureJ:       5e-3, // 4K sensor readout per frame
		ComputeJ:       watts * cost.ComputeSeconds,
		TxFixedJ:       radio.TxFixedJ(),
		TxPerByteJ:     radio.TxPerByteJ(),
	}, nil
}

// PlacementEnergyPerFrame returns the expected joules per captured frame
// of a camera of this class holding placement row i, charging capture,
// the row's compute, and — for the offloading fraction of frames — the
// camera radio plus netPerByteJ of per-byte forwarding summed over every
// network hop the payload crosses (the tier tree's per-link TxPerByteJ).
// With no cost table, the class-level fields are row 0.
func (c *Class) PlacementEnergyPerFrame(i int, netPerByteJ float64) float64 {
	r := c.rows()[i]
	return energy.FrameEnergy(c.CaptureJ, r.ComputeJ, c.TxFixedJ, c.TxPerByteJ+netPerByteJ, r.FrameBytes, c.OffloadProb)
}
