package fleet

import (
	"fmt"
	"math"

	"camsim/internal/fleet/queue"
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

// serviceSecFor resolves the per-frame service time for the named class
// at its reference payload: an explicit ServiceSec entry wins, then the
// ServiceRateFPS default. Zero means unresolvable (validation rejects
// that for classes whose frames actually cross the tier).
func (cc *ComputeConfig) serviceSecFor(class string) float64 {
	for _, e := range cc.ServiceSec {
		if e.Class == class {
			return e.Sec
		}
	}
	if cc.ServiceRateFPS > 0 {
		return 1 / cc.ServiceRateFPS
	}
	return 0
}

// referenceBytes is the payload the class's compute service times are
// quoted against: the largest placement row, or FrameBytes without a
// table. Zero means the class never offloads a frame.
func (c *Class) referenceBytes() float64 {
	ref := float64(c.FrameBytes)
	for _, p := range c.Placements {
		if b := float64(p.FrameBytes); b > ref {
			ref = b
		}
	}
	return ref
}

// validateComputeNodes checks every tier's compute section against the
// resolved tree: well-formed pool parameters, known discipline and
// classes, and a resolvable service time for every offloading class
// whose offload path crosses the tier.
func (sc *Scenario) validateComputeNodes(nodes []tierNode, root int) error {
	any := false
	for _, nd := range nodes {
		cc := nd.Compute
		if cc == nil {
			continue
		}
		any = true
		if cc.Cores < 0 {
			return fmt.Errorf("fleet: tier %q: compute cores %d must be positive", nd.Name, cc.Cores)
		}
		if !(cc.ServiceRateFPS >= 0) || math.IsInf(cc.ServiceRateFPS, 0) {
			return fmt.Errorf("fleet: tier %q: compute service rate %v fps must be finite and non-negative",
				nd.Name, cc.ServiceRateFPS)
		}
		if cc.Discipline != "" && cc.Discipline != ContentionFIFO && cc.Discipline != ContentionFairShare {
			return fmt.Errorf("fleet: tier %q: unknown compute discipline %q", nd.Name, cc.Discipline)
		}
		if cc.ServiceRateFPS == 0 && len(cc.ServiceSec) == 0 {
			return fmt.Errorf("fleet: tier %q: compute needs service_rate_fps or service_sec", nd.Name)
		}
		seen := make(map[string]bool, len(cc.ServiceSec))
		for _, e := range cc.ServiceSec {
			if e.Class == "" {
				return fmt.Errorf("fleet: tier %q: compute service_sec entry names no class", nd.Name)
			}
			if seen[e.Class] {
				return fmt.Errorf("fleet: tier %q: duplicate compute service_sec for class %q", nd.Name, e.Class)
			}
			seen[e.Class] = true
			if classIndex(sc.Classes, e.Class) < 0 {
				return fmt.Errorf("fleet: tier %q: compute service_sec names unknown class %q", nd.Name, e.Class)
			}
			if !(e.Sec > 0) || math.IsInf(e.Sec, 0) {
				return fmt.Errorf("fleet: tier %q: compute service %v sec for class %q must be positive and finite",
					nd.Name, e.Sec, e.Class)
			}
		}
	}
	if !any {
		return nil
	}
	// Every offloading class must resolve a service time at every compute
	// tier its frames actually pass through (attach tier up to the root).
	for ci := range sc.Classes {
		c := &sc.Classes[ci]
		if c.referenceBytes() <= 0 {
			continue // never offloads, never queues for compute
		}
		for ti := classAttachIndex(nodes, root, c); ti >= 0; ti = nodes[ti].parent {
			cc := nodes[ti].Compute
			if cc == nil {
				continue
			}
			if cc.serviceSecFor(c.Name) <= 0 {
				return fmt.Errorf("fleet: tier %q: compute has no service time for class %q (add a service_sec entry or a service_rate_fps default)",
					nodes[ti].Name, c.Name)
			}
		}
	}
	return nil
}

// computePlan resolves each tier's service scaling: plan[ti][ci] is the
// service demand in core-seconds per payload byte for class ci's frames
// at tier ti, so a frame of b bytes occupies plan[ti][ci]×b core-seconds
// there. plan is nil when no tier declares compute (the infinite-compute
// fast path), and plan[ti] is nil for tiers without a compute section.
func computePlan(nodes []tierNode, classes []Class) [][]float64 {
	var plan [][]float64
	for ti := range nodes {
		cc := nodes[ti].Compute
		if cc == nil {
			continue
		}
		if plan == nil {
			plan = make([][]float64, len(nodes))
		}
		row := make([]float64, len(classes))
		for ci := range classes {
			if ref := classes[ci].referenceBytes(); ref > 0 {
				row[ci] = cc.serviceSecFor(classes[ci].Name) / ref
			}
		}
		plan[ti] = row
	}
	return plan
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
// the floor is what the controllers can price before observing it. A
// class without a placements table gets a single-row table.
func classRowDelays(c *Class, pathScale float64) []float64 {
	if len(c.Placements) == 0 {
		return []float64{c.ComputeSeconds + c.OffloadProb*pathScale*float64(c.FrameBytes)}
	}
	rows := make([]float64, len(c.Placements))
	for i, p := range c.Placements {
		rows[i] = p.ComputeSeconds + c.OffloadProb*pathScale*float64(p.FrameBytes)
	}
	return rows
}

// RowDelaySeconds reports the named class's per-placement-row delay
// floor (see classRowDelays) under this scenario's topology and compute
// sections: index i is the deterministic seconds per frame of placement
// row i — in-camera compute plus expected tier service — before any
// queueing. Rows through a congested tier therefore never observe less
// than this. Returns nil (no error) when no compute tier sits on the
// class's offload path, and an error for an unknown class or topology.
func (sc Scenario) RowDelaySeconds(class string) ([]float64, error) {
	sc = sc.clone()
	sc.Normalize()
	nodes, root, err := sc.topology()
	if err != nil {
		return nil, err
	}
	ci := classIndex(sc.Classes, class)
	if ci < 0 {
		return nil, fmt.Errorf("fleet: scenario %q: unknown class %q", sc.Name, class)
	}
	plan := computePlan(nodes, sc.Classes)
	c := &sc.Classes[ci]
	scale := classPathScale(nodes, plan, ci, classAttachIndex(nodes, root, c))
	if scale == 0 {
		return nil, nil
	}
	return classRowDelays(c, scale), nil
}

// newComputeServer builds a tier's core pool as a Link whose "bytes" are
// core-seconds of service demand: the event loop drives it with the
// same Start/NextFinish/Finish protocol as the network links, so
// compute completions need no new event kinds and inherit the
// deterministic (time, link index) tie-break.
func newComputeServer(cc *ComputeConfig) Link {
	if cc.Discipline == ContentionFairShare {
		return &psCompute{cores: float64(cc.Cores)}
	}
	return &fifoCompute{cores: cc.Cores}
}

// --- FIFO core pool ---

// fifoCompute is a multi-server FIFO queue: up to cores frames are in
// service concurrently, each on its own core at full rate; the rest wait
// in arrival order and take the core freed by the earliest completion.
type fifoCompute struct {
	cores  int
	busy   queue.Heap[job] // in service, keyed by (finish time, admission seq)
	wait   queue.Ring[job] // waiting frames, arrival order
	seq    int64
	served float64 // core-seconds of completed service
}

// serve puts j on a core until finish.
func (s *fifoCompute) serve(finish float64, j job) {
	s.busy.Push(queue.Item[job]{T: finish, Tie: s.seq, P: j})
	s.seq++
}

func (s *fifoCompute) Start(now float64, id int, work float64) {
	if len(s.busy) < s.cores {
		s.serve(now+work, job{id: id, size: work})
		return
	}
	s.wait.Push(job{id: id, size: work})
}

func (s *fifoCompute) NextFinish() (float64, bool) {
	if len(s.busy) == 0 {
		return 0, false
	}
	return s.busy[0].T, true
}

func (s *fifoCompute) Finish() int {
	it := s.busy.Pop()
	s.served += it.P.size
	if s.wait.Len() > 0 && len(s.busy) < s.cores {
		// The freed core immediately takes the longest-waiting frame. The
		// cores check only bites after a dynamics shrink: frames already
		// in service run to completion, and the pool promotes nothing
		// until the busy population fits the new size.
		next := s.wait.Pop()
		s.serve(it.T+next.size, next)
	}
	return it.P.id
}

func (s *fifoCompute) InFlight() int        { return len(s.busy) + s.wait.Len() }
func (s *fifoCompute) ServedBytes() float64 { return s.served }

// setCores resizes the pool at time now. Growth promotes waiting frames
// onto the new cores immediately; shrink never preempts — in-service
// frames finish, and the pool re-admits only below the new size.
func (s *fifoCompute) setCores(now float64, cores int) {
	s.cores = cores
	for len(s.busy) < s.cores && s.wait.Len() > 0 {
		next := s.wait.Pop()
		s.serve(now+next.size, next)
	}
}

// drain removes every frame — in-service completion order first, then
// waiting order — crediting no served core-seconds.
func (s *fifoCompute) drain() []int {
	ids := make([]int, 0, len(s.busy)+s.wait.Len())
	for len(s.busy) > 0 {
		ids = append(ids, s.busy.Pop().P.id)
	}
	for s.wait.Len() > 0 {
		ids = append(ids, s.wait.Pop().id)
	}
	return ids
}

// --- fair-share core pool ---

// psCompute shares the pool by egalitarian processor sharing with the
// same virtual-time machinery as psUplink, with one extra constraint: a
// frame cannot run faster than one core, so with n frames in flight each
// progresses at min(1, cores/n) core-seconds per second — an underloaded
// pool runs every frame at full speed instead of splitting idle cores.
type psCompute struct {
	cores  float64
	vnow   float64         // virtual service accrued by every in-flight frame
	tlast  float64         // wall time at which vnow was computed
	h      queue.Heap[job] // keyed by (virtual finish level, admission seq)
	seq    int64
	served float64 // core-seconds of completed service
}

// rate is each in-flight frame's service rate in core-seconds/second.
func (s *psCompute) rate() float64 {
	if n := float64(len(s.h)); n > s.cores {
		return s.cores / n
	}
	return 1
}

// advance moves the virtual clock to wall time t.
func (s *psCompute) advance(t float64) {
	if len(s.h) > 0 && t > s.tlast {
		s.vnow += (t - s.tlast) * s.rate()
	}
	s.tlast = t
}

func (s *psCompute) Start(now float64, id int, work float64) {
	s.advance(now)
	s.h.Push(queue.Item[job]{T: s.vnow + work, Tie: s.seq, P: job{id: id, size: work}})
	s.seq++
}

func (s *psCompute) NextFinish() (float64, bool) {
	if len(s.h) == 0 {
		return 0, false
	}
	remaining := s.h[0].T - s.vnow
	if remaining < 0 {
		remaining = 0 // float drift guard
	}
	return s.tlast + remaining/s.rate(), true
}

func (s *psCompute) Finish() int {
	t, _ := s.NextFinish()
	s.advance(t)
	item := s.h.Pop()
	s.vnow = item.T // pin exactly, absorbing float drift
	s.served += item.P.size
	return item.P.id
}

func (s *psCompute) InFlight() int        { return len(s.h) }
func (s *psCompute) ServedBytes() float64 { return s.served }

// setCores resizes the pool at time now, conserving virtual progress:
// the clock advances at the old rate first, then every in-flight frame
// continues at the new min(1, cores/n).
func (s *psCompute) setCores(now float64, cores int) {
	s.advance(now)
	s.cores = float64(cores)
}

// drain removes every in-flight frame in completion order, crediting no
// served core-seconds.
func (s *psCompute) drain() []int {
	ids := make([]int, 0, len(s.h))
	for len(s.h) > 0 {
		ids = append(ids, s.h.Pop().P.id)
	}
	return ids
}
