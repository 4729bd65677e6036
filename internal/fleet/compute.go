package fleet

import (
	"fmt"
	"math"
)

// ComputeConfig is the optional per-tier "compute" scenario section: a
// finite pool of identical cores that services every offloaded frame a
// tier forwards, before the frame enters the tier's uplink. Without it a
// tier's processing is free and instantaneous — only links are contended
// — which prices gateway and cloud compute as infinite and lets the
// placement controllers solve only half of the paper's problem. With it,
// end-to-end latency becomes capture → in-camera compute → per-hop
// (queueing + service + transmission + propagation) → done, and a
// congested tier costs real delay.
//
// Service demand scales with the payload. The per-class service time
// (an explicit ServiceSec entry, or 1/ServiceRateFPS) is the cost of the
// class's *reference* payload — its largest placement row, or FrameBytes
// when it has no table. A frame carrying fewer bytes is serviced
// proportionally faster: the byte count is the simulator's proxy for how
// much of the vision pipeline remains (each in-camera stage shrinks the
// payload it ships), so a placement row that does more work in the
// camera leaves less work for every tier on the path. That coupling is
// what makes placement a joint network+compute decision rather than a
// pure bandwidth one.
//
// Federated-learning traffic (update blobs and model broadcasts) rides
// the links directly and never queues for tier compute: the rounds model
// aggregation as free at the tier, and pricing it would change FL
// scenarios that predate this section.
type ComputeConfig struct {
	// Cores is the number of identical servers in the pool. Normalize
	// defaults an unset (zero) value to 1.
	Cores int `json:"cores,omitempty"`
	// ServiceRateFPS is the default per-core service rate, in
	// reference-payload frames per second, for classes without an explicit
	// ServiceSec entry. One frame at the class's reference payload
	// occupies one core for 1/ServiceRateFPS seconds.
	ServiceRateFPS float64 `json:"service_rate_fps,omitempty"`
	// ServiceSec gives per-class service times that override
	// ServiceRateFPS. Every offloading class whose path crosses the tier
	// must resolve a service time one way or the other.
	ServiceSec []ClassServiceSec `json:"service_sec,omitempty"`
	// Discipline is how waiting frames share the pool: ContentionFIFO
	// (the default — frames are served in arrival order, one core each)
	// or ContentionFairShare (egalitarian processor sharing across the
	// pool, each frame capped at one core's rate).
	Discipline string `json:"discipline,omitempty"`
}

// ClassServiceSec is one per-class service-time override in a tier's
// compute section: frames of Class occupy one core for Sec seconds at
// the class's reference payload.
type ClassServiceSec struct {
	Class string  `json:"class"`
	Sec   float64 `json:"sec"`
}

// normalize fills the section's defaulted fields in place (idempotent).
func (cc *ComputeConfig) normalize() {
	if cc.Cores == 0 {
		cc.Cores = 1
	}
	if cc.Discipline == "" {
		cc.Discipline = ContentionFIFO
	}
}

// referenceBytes is the payload the class's compute service times are
// quoted against: its largest row (Class.rows), so FrameBytes without a
// table. Zero means the class never offloads a frame.
func (c *Class) referenceBytes() float64 {
	ref := 0.0
	for _, r := range c.rows() {
		ref = max(ref, float64(r.FrameBytes))
	}
	return ref
}

// validateComputeNodes checks every tier's compute section against the
// resolved tree: well-formed pool parameters, known discipline and
// classes, and a resolvable service time for every offloading class
// whose offload path, from its attach tier up, crosses the tier. It
// returns the service plan: plan[ti][ci] is the service demand in
// core-seconds per payload byte for class ci's frames at tier ti, so a
// frame of b bytes occupies plan[ti][ci]×b core-seconds there, and 0
// for a class that never offloads. plan is nil when no tier declares
// compute (the infinite-compute fast path), and plan[ti] is nil for
// tiers without a compute section.
func (sc *Scenario) validateComputeNodes(nodes []tierNode, attach []int, names map[string]int) ([][]float64, error) {
	var plan [][]float64
	for ti, nd := range nodes {
		cc := nd.Compute
		if cc == nil {
			continue
		}
		if cc.Cores < 0 {
			return nil, fmt.Errorf("fleet: tier %q: compute cores %d must be positive", nd.Name, cc.Cores)
		}
		if !(cc.ServiceRateFPS >= 0) || math.IsInf(cc.ServiceRateFPS, 0) {
			return nil, fmt.Errorf("fleet: tier %q: compute service rate %v fps must be finite and non-negative",
				nd.Name, cc.ServiceRateFPS)
		}
		if cc.Discipline != "" && cc.Discipline != ContentionFIFO && cc.Discipline != ContentionFairShare {
			return nil, fmt.Errorf("fleet: tier %q: unknown compute discipline %q", nd.Name, cc.Discipline)
		}
		if cc.ServiceRateFPS == 0 && len(cc.ServiceSec) == 0 {
			return nil, fmt.Errorf("fleet: tier %q: compute needs service_rate_fps or service_sec", nd.Name)
		}
		// row holds each class's service time at its reference payload,
		// made a per-byte demand at the end. First each service_sec entry,
		// filed under its class's index: an entry already filed repeats.
		row := make([]float64, len(sc.Classes))
		for _, e := range cc.ServiceSec {
			if e.Class == "" {
				return nil, fmt.Errorf("fleet: tier %q: compute service_sec entry names no class", nd.Name)
			}
			ci, ok := names[e.Class]
			if !ok {
				return nil, fmt.Errorf("fleet: tier %q: compute service_sec names unknown class %q", nd.Name, e.Class)
			}
			if row[ci] != 0 {
				return nil, fmt.Errorf("fleet: tier %q: duplicate compute service_sec for class %q", nd.Name, e.Class)
			}
			if !(e.Sec > 0) || math.IsInf(e.Sec, 0) {
				return nil, fmt.Errorf("fleet: tier %q: compute service %v sec for class %q must be positive and finite",
					nd.Name, e.Sec, e.Class)
			}
			row[ci] = e.Sec
		}
		// Then every class's time: its entry, else the service_rate_fps
		// default, else 0.
		for ci := range row {
			if row[ci] == 0 && cc.ServiceRateFPS > 0 {
				row[ci] = 1 / cc.ServiceRateFPS
			}
		}
		if plan == nil {
			plan = make([][]float64, len(nodes))
		}
		plan[ti] = row
	}
	if plan == nil {
		return nil, nil
	}
	// Every offloading class must resolve a service time at every compute
	// tier its frames actually pass through (attach tier up to the root).
	// Its name finds its time: a class repeating an earlier class's name,
	// which validate rejects later, is checked by that class's entries.
	for ci := range sc.Classes {
		c := &sc.Classes[ci]
		if c.referenceBytes() <= 0 {
			continue // never offloads, never queues for compute
		}
		named := names[c.Name]
		for ti := attach[ci]; ti >= 0; ti = nodes[ti].parent {
			if plan[ti] != nil && plan[ti][named] == 0 {
				return nil, fmt.Errorf("fleet: tier %q: compute has no service time for class %q (add a service_sec entry or a service_rate_fps default)",
					nodes[ti].Name, c.Name)
			}
		}
	}
	// Each time becomes a demand per byte of the class's reference
	// payload, and 0 for a class that never offloads.
	for _, row := range plan {
		for ci := range row {
			if ref := sc.Classes[ci].referenceBytes(); ref > 0 {
				row[ci] /= ref
			} else {
				row[ci] = 0
			}
		}
	}
	return plan, nil
}

// classPathScale sums a class's per-byte service demand over every
// compute tier between its attach point and the root: the deterministic
// compute cost, in core-seconds per byte, of offloading one payload byte
// end to end. Zero when no compute tier sits on the path.
func classPathScale(nodes []tierNode, plan [][]float64, ci int, attach int) float64 {
	if plan == nil {
		return 0
	}
	s := 0.0
	for ti := attach; ti >= 0; ti = nodes[ti].parent {
		if plan[ti] != nil {
			s += plan[ti][ci]
		}
	}
	return s
}

// classRowDelays prices each placement row's deterministic per-frame
// delay floor: the row's in-camera compute plus the expected path
// service time of its payload (offload probability × per-byte path
// demand × row bytes). Queueing rides on top of this floor at run time;
// the floor is what the controllers can price before observing it. It
// has one entry per row of Class.rows.
func classRowDelays(c *Class, pathScale float64) []float64 {
	rows := c.rows()
	d := make([]float64, len(rows))
	for i, r := range rows {
		d[i] = r.ComputeSeconds + float64(c.OffloadProb*pathScale*float64(r.FrameBytes))
	}
	return d
}

// RowDelaySeconds reports the named class's per-placement-row delay
// floor (see classRowDelays) under this scenario's topology and compute
// sections: index i is the deterministic seconds per frame of placement
// row i — in-camera compute plus expected tier service — before any
// queueing. Rows through a congested tier therefore never observe less
// than this. Returns nil (no error) when no compute tier sits on the
// class's offload path, Validate's error for any scenario Run rejects,
// and an error for an unknown class.
func (sc Scenario) RowDelaySeconds(class string) ([]float64, error) {
	sc = sc.clone()
	sc.Normalize()
	rv, err := sc.validate()
	if err != nil {
		return nil, err
	}
	ci, ok := rv.names[class]
	if !ok {
		return nil, fmt.Errorf("fleet: scenario %q: unknown class %q", sc.Name, class)
	}
	scale := classPathScale(rv.nodes, rv.plan, ci, rv.attach[ci])
	if scale == 0 {
		return nil, nil
	}
	return classRowDelays(&sc.Classes[ci], scale), nil
}
