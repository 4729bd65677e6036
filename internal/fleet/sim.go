package fleet

import (
	"fmt"
	"math"

	"camsim/internal/fleet/fl"
	"camsim/internal/fleet/quantile"
)

// event kinds: a camera captures a frame; an in-camera-processed frame
// becomes ready for its first-hop link; a transfer finishes propagating
// between tiers and enters the next link; a transfer clears the root
// hop's propagation and arrives in the cloud; an adaptive class's
// controller makes a placement decision; the global energy-aware
// controller runs one epoch; a federated camera's local training ends
// and its update blob enters the attach uplink; a federated blob clears
// its uplink hop's propagation and is absorbed for aggregation one tier
// up (or at the cloud); a broadcast model blob clears a downlink's
// propagation and is delivered at the owning tier; a dynamics schedule
// entry fires (churn, link degradation, tier outage/recovery, rate
// profile or core rescale). Link completions themselves are not events —
// the loop peeks them off the links, whose finish times shift as
// transfers are admitted.
const (
	evCapture = iota
	evReady
	evHop
	evArrive
	evControl
	evGlobal
	evFLReady
	evFLUp
	evFLDeliver
	evDynamics
)

// event is one scheduled simulator step. It is 24 bytes, not a whole
// cache line, because a large fleet keeps ~100k of them resident in the
// heap. The heap orders on (t, seq); seq holds the loop's scheduling
// counter shifted left kindBits with the event kind in the low bits,
// which orders exactly like the bare counter because the counter is
// unique. Payload that does not fit id and aux lives in the transfer
// record the event names.
type event struct {
	t   float64
	seq int64 // scheduling counter<<kindBits | kind: earlier-scheduled events fire first
	// id names the subject: the camera (evCapture), class (evControl),
	// federated participant (evFLReady), dynamics schedule entry
	// (evDynamics), or transfer (evReady, evHop, evArrive, evFLUp,
	// evFLDeliver) — a frame's transfer record exists from capture, so it
	// carries the capture time and payload an evReady needs.
	id int32
	// aux is the tier a propagating transfer enters (evHop), the uplink
	// it cleared (evFLUp) or the tier it is delivered at (evFLDeliver),
	// and the round a federated participant's update belongs to
	// (evFLReady).
	aux int32
}

// kindBits is the width of the event kind packed under the scheduling
// counter in event.seq; every kind above must fit in it.
const kindBits = 4

// newEvent packs an event scheduled as the loop's seq-th push.
func newEvent(t float64, seq int64, kind int, id, aux int32) event {
	return event{t: t, seq: seq<<kindBits | int64(kind), id: id, aux: aux}
}

// kind unpacks the event kind from the low bits of seq.
func (ev *event) kind() int { return int(ev.seq & (1<<kindBits - 1)) }

// eventHeap is a specialized binary min-heap ordered by (t, seq). The
// order is total (seq is unique), so any correct min-heap pops the same
// sequence — the one container/heap produced, held differentially by
// TestHeapsMatchContainerHeap. Push and pop move event values directly
// instead of boxing each one through an interface, and sift through a
// hole: the moving element is held aside, parents (push) or smaller
// children (pop) shift into the gap, and the element is written once
// where it stops, instead of being swapped at every level.
type eventHeap []event

func (eventHeap) less(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !s.less(&ev, &s[i]) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = ev
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s.less(&s[j2], &s[j]) {
			j = j2
		}
		if !s.less(&s[j], &last) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = last
	return top
}

// camera is one simulated device. The random stream is embedded by value:
// 8 bytes inline rather than a pointer to rand.NewSource's ~5 KB state,
// so a 100k-camera fleet stays cache-resident.
type camera struct {
	class     int
	rng       prng
	inflight  int
	placement int     // current index into the class's Placements table
	stored    float64 // harvested joules in the store (harvesting classes)
	lastTop   float64 // wall time of the last store top-up
	// departed marks a camera retired by dynamics churn: it captures
	// nothing further, but frames already in flight still complete.
	departed bool
}

// transfer is one in-flight payload, indexed by transfer id. A frame
// offload (round 0) holds its id from capture — through in-camera
// compute, then every link from the class's attach tier up to the root;
// a federated blob (round > 0) crosses exactly one link per id — an
// update absorbed one hop up (cam ≥ 0 for a camera's own blob, -1 for a
// tier's merged blob) or a model copy delivered down one downlink (cam
// -1).
type transfer struct {
	cam   int32
	round int32
	// capturedAt (the latency epoch) and bytes are fixed at capture time,
	// so a placement switch mid-flight cannot retroactively resize a
	// frame.
	capturedAt float64
	bytes      float64
	// compAt is when the frame entered the compute pool it currently
	// occupies (scenarios with per-tier compute only), the epoch its
	// queueing wait is measured from.
	compAt float64
}

// flPart is one federated participant: a camera's attach tier plus its
// own jitter stream, a third seed family (cameras, controllers,
// federated) so enabling a federated job never perturbs frame traffic
// draws.
type flPart struct {
	tier int32
	rng  prng
}

// flSeed derives a participant's jitter-stream seed from the scenario
// seed and the camera's global index, two full splitmix64 rounds under
// the federated family tag.
func flSeed(seed int64, idx int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)^0xfedc0de5) + uint64(idx)))
}

// splitmix64 is one round of the splitmix64 mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// clampEst converts a float capacity estimate to an int usable as a make
// cap. A valid scenario can push FPS × Duration × Count past int range —
// int() of an out-of-range float is unspecified (negative caps panic
// make) — and no estimate is worth an absurd up-front allocation, so the
// result is clamped to [0, 2^22]; NaN maps to 0. Estimates only size
// preallocations, never bound growth, so clamping cannot change results.
func clampEst(x float64) int {
	const estCap = 1 << 22
	if !(x > 0) { // also rejects NaN
		return 0
	}
	if x > estCap {
		return estCap
	}
	return int(x)
}

// cameraSeed derives a well-separated per-camera seed, so a camera's random
// stream is a function of (seed, index) alone — stable under reordering,
// class edits elsewhere, or parallel sweeps. Two full mixing rounds keep
// every seed bit live: the earlier seed<<20+idx pre-mix discarded the
// seed's top 20 bits and collided outright for camera indexes ≥ 2^20.
func cameraSeed(seed int64, idx int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) + uint64(idx)))
}

// Run executes one scenario to completion: captures stop at
// Scenario.Duration and every tier drains. The same normalized scenario
// always produces the identical Result.
func Run(sc Scenario) (*Result, error) { return run(sc, true) }

// run is Run with the link-completion lookup selectable: indexed (the
// production path — a lazily invalidated heap finds the earliest completion
// in O(log tiers)) or the O(tiers)-scan baseline kept for the
// BenchmarkDeepTopology comparison and equivalence tests.
func run(sc Scenario, indexed bool) (*Result, error) {
	// sc arrives by value but Classes/Gateways/Tiers share backing arrays
	// with the caller (and, under Sweep, with sibling scenarios), and
	// Global, Federated and each Tier's Downlink are shared pointers:
	// copy before Normalize writes defaults into them.
	sc.Classes = append([]Class(nil), sc.Classes...)
	sc.Gateways = append([]Gateway(nil), sc.Gateways...)
	sc.Tiers = append([]Tier(nil), sc.Tiers...)
	for i := range sc.Tiers {
		if d := sc.Tiers[i].Downlink; d != nil {
			dd := *d
			sc.Tiers[i].Downlink = &dd
		}
		if cp := sc.Tiers[i].Compute; cp != nil {
			cc := *cp
			sc.Tiers[i].Compute = &cc
		}
	}
	if sc.Global != nil {
		g := *sc.Global
		sc.Global = &g
	}
	if sc.Telemetry != nil {
		tc := *sc.Telemetry
		sc.Telemetry = &tc
	}
	if sc.Dynamics != nil {
		dd := *sc.Dynamics
		dd.Events = append([]FleetEvent(nil), dd.Events...)
		sc.Dynamics = &dd
	}
	sc.Federated = sc.Federated.Clone()
	sc.Normalize()

	// The resolved tier tree, one link per node; every offload rides the
	// chain of links from its class's attach node to the root, paying
	// transmission plus one-way propagation at each hop. Resolved once,
	// shared with validation.
	nodes, root, err := sc.topology()
	if err != nil {
		return nil, err
	}
	if err := sc.validate(nodes); err != nil {
		return nil, err
	}
	links := make([]Link, len(nodes))
	tierIdx := make(map[string]int, len(nodes))
	for i, nd := range nodes {
		up, err := NewLink(nd.Uplink.Contention, nd.Uplink.BytesPerSecond())
		if err != nil {
			return nil, err
		}
		links[i] = up
		tierIdx[nd.Name] = i
	}
	// Declared downlinks are appended after every uplink, in tier order:
	// uplink indices — and therefore simultaneous-completion tie-breaks —
	// stay exactly the legacy ones, and a downlink tying an uplink
	// resolves after it. downLink maps a tier to its downlink's link
	// index (-1 without one); downOwner maps back.
	downLink := make([]int, len(nodes))
	var downOwner []int
	for i, nd := range nodes {
		downLink[i] = -1
		if nd.Downlink == nil {
			continue
		}
		dn, err := NewLink(nd.Downlink.Contention, nd.Downlink.BytesPerSecond())
		if err != nil {
			return nil, err
		}
		downLink[i] = len(links)
		downOwner = append(downOwner, i)
		links = append(links, dn)
	}
	// Tier core pools are links too ("bytes" = core-seconds of service
	// demand), appended after every downlink: uplink and downlink indices
	// — and therefore every legacy tie-break — are untouched, and a
	// compute completion tying a network completion resolves last.
	// compPlan is nil without any compute section, the infinite-compute
	// fast path: no servers exist, no routing changes, and the run is
	// byte-identical to a build that predates the section. compLink maps
	// a tier to its pool's link index (-1 without one); compOwner maps
	// back; compWait sketches each pool's queueing delay.
	compPlan := computePlan(nodes, sc.Classes)
	compLink := make([]int, len(nodes))
	var compOwner []int
	var compWait []*quantile.Sketch
	for i := range nodes {
		compLink[i] = -1
		if compPlan == nil || nodes[i].Compute == nil {
			continue
		}
		if compWait == nil {
			compWait = make([]*quantile.Sketch, len(nodes))
		}
		compLink[i] = len(links)
		compOwner = append(compOwner, i)
		links = append(links, newComputeServer(nodes[i].Compute))
		compWait[i] = quantile.NewSketch()
	}

	// firstHop maps each class to the link its cameras transmit on;
	// pathFwdJ prices the class's uplink path in forwarding joules per
	// byte (the sum of Tier.TxPerByteJ over every hop to the root), and
	// rowJ prices every class's placement rows per captured frame — the
	// energy tables the placement controllers score against.
	firstHop := make([]int, len(sc.Classes))
	rowJ := make([][]float64, len(sc.Classes))
	// rowDelay prices every class's placement rows in deterministic delay
	// seconds per frame (in-camera compute plus expected tier service, see
	// classRowDelays) — nil per class unless a compute tier sits on its
	// offload path, so scenarios without the section keep the controllers'
	// legacy arithmetic bit for bit.
	var rowDelay [][]float64
	for ci := range sc.Classes {
		firstHop[ci] = root
		if at := sc.Classes[ci].attach(); at != "" {
			firstHop[ci] = tierIdx[at]
		}
		pathFwdJ := 0.0
		for li := firstHop[ci]; li >= 0; li = nodes[li].parent {
			pathFwdJ += nodes[li].TxPerByteJ
		}
		rowJ[ci] = classRowEnergies(&sc.Classes[ci], pathFwdJ)
		if scale := classPathScale(nodes, compPlan, ci, firstHop[ci]); scale > 0 {
			if rowDelay == nil {
				rowDelay = make([][]float64, len(sc.Classes))
			}
			rowDelay[ci] = classRowDelays(&sc.Classes[ci], scale)
		}
	}

	// The dynamics engine, created only for a non-empty fault schedule:
	// every other run — including one with a present-but-empty dynamics
	// section — bypasses every dyn != nil branch and stays byte-identical
	// to the legacy path.
	var dyn *dynamics
	if sc.Dynamics != nil && len(sc.Dynamics.Events) > 0 {
		dyn = newDynamics(&sc, nodes, firstHop)
	}

	// The streaming-telemetry collector, when the scenario opts in. It
	// observes the same completions and drops at the same event times the
	// exact path counts, so it cannot perturb the simulation — it only
	// changes how latency statistics are accumulated (sketches instead of
	// sample slices) and, with a window, adds the time series.
	var tel *collector
	if sc.Telemetry != nil && sc.Telemetry.Streaming {
		labels := make([]string, 0, len(links))
		caps := make([]float64, 0, len(links))
		for _, nd := range nodes {
			labels = append(labels, nd.Name)
			caps = append(caps, nd.Uplink.BytesPerSecond())
		}
		for _, ti := range downOwner {
			labels = append(labels, nodes[ti].Name+":down")
			caps = append(caps, nodes[ti].Downlink.BytesPerSecond())
		}
		for _, ti := range compOwner {
			// A pool's "capacity" is cores×1 core-seconds per second, so
			// the shared utilization math reports busy fraction.
			labels = append(labels, nodes[ti].Name+":compute")
			caps = append(caps, float64(nodes[ti].Compute.Cores))
		}
		tel = newCollector(&sc, links, labels, caps, dyn)
	}

	// The federated round engine, when the scenario configures a job. It
	// is pure accounting — the loop below reports blob landings and model
	// deliveries to it and starts the transfers it asks for. flUpBytes
	// splits each uplink's served bytes into the federated share.
	var fle *fl.Engine
	var flUpBytes []float64
	if sc.Federated != nil {
		topo, err := sc.flTopology(nodes)
		if err != nil {
			return nil, err
		}
		if fle, err = fl.NewEngine(*sc.Federated, topo); err != nil {
			return nil, err
		}
		flUpBytes = make([]float64, len(nodes))
	}

	// netInFlight counts transfers resident in any link (one transfer
	// crossing k tiers counts once per currently occupied link), replacing
	// the per-iteration rescan of every tier. Transfers mid-propagation
	// between links sit in the event heap instead, so the loop condition
	// still sees them.
	netInFlight := 0
	linkTransfers := make([]int64, len(links))
	var lidx *linkIndex
	if indexed {
		lidx = newLinkIndex(links)
	}
	startLink := func(li int, now float64, id int, bytes float64) {
		links[li].Start(now, id, bytes)
		netInFlight++
		if lidx != nil {
			lidx.invalidate(li)
		}
	}
	finishLink := func(li int) int {
		id := links[li].Finish()
		netInFlight--
		linkTransfers[li]++
		if lidx != nil {
			lidx.invalidate(li)
		}
		return id
	}
	// nextLinkFinish returns the earliest completion across the tiers;
	// ties resolve to the lowest link index (leaves before the root),
	// deterministically, under both lookup strategies.
	nextLinkFinish := func() (int, float64, bool) {
		if lidx != nil {
			return lidx.peek()
		}
		li, lt := -1, 0.0
		for i, up := range links {
			if t, ok := up.NextFinish(); ok && (li < 0 || t < lt) {
				li, lt = i, t
			}
		}
		return li, lt, li >= 0
	}
	// anyInFlight gates the event loop. The baseline reproduces the old
	// per-iteration rescan of every tier; the indexed path reads the
	// running counter.
	anyInFlight := func() bool {
		if lidx != nil {
			return netInFlight > 0
		}
		for _, up := range links {
			if up.InFlight() > 0 {
				return true
			}
		}
		return false
	}

	cams := make([]camera, 0, sc.Cameras())
	classCams := make([][]int32, len(sc.Classes))
	ctls := newControllers(&sc, rowJ, rowDelay)
	gctl := newGlobal(&sc, rowJ, rowDelay)
	res := newResult(sc)

	// Steady-state storage is sized up front so the event loop never
	// regrows it. The event heap's population is structurally bounded —
	// each camera owns at most one pending capture plus one live event per
	// in-flight offload (≤ QueueDepth) — and the expected frame count
	// FPS × Duration × Count caps that bound for short runs. Latency
	// slices get the expected completed-offload count per class.
	heapCap := 1 + len(sc.Classes)
	for ci := range sc.Classes {
		cl := &sc.Classes[ci]
		frames := cl.FPS * sc.Duration * float64(cl.Count)
		slots := float64(cl.Count) * float64(1+cl.QueueDepth)
		if frames+float64(cl.Count) < slots {
			slots = frames + float64(cl.Count)
		}
		heapCap += clampEst(slots)
		if tel == nil {
			// The exact path holds every completed offload's latency; the
			// streaming path holds O(1) sketches instead, so this is the
			// frame-scaled allocation telemetry removes.
			res.Classes[ci].latencies = make([]float64, 0, clampEst(frames*cl.OffloadProb))
		}
		classCams[ci] = make([]int32, 0, cl.Count)
	}
	if fle != nil {
		// One pending ready event per federated participant at a time.
		heapCap += fle.Cameras()
	}
	if dyn != nil {
		// One pending firing per schedule entry at a time (a recurring
		// entry re-pushes itself only as it fires).
		heapCap += len(dyn.events)
	}
	events := make(eventHeap, 0, heapCap)
	var seq int64
	push := func(t float64, kind int, id, aux int32) {
		events.push(newEvent(t, seq, kind, id, aux))
		seq++
	}
	nextCapture := func(c *camera, now float64) float64 {
		cl := &sc.Classes[c.class]
		fps := cl.FPS
		if dyn != nil {
			// ×1.0 is exact, so a schedule that never touches a class's
			// rate leaves its capture times bit-identical.
			fps *= dyn.fpsMul[c.class]
		}
		if cl.Arrival == ArrivalPoisson {
			return now + c.rng.ExpFloat64()/fps
		}
		return now + 1/fps
	}
	for ci := range sc.Classes {
		cl := &sc.Classes[ci]
		for k := 0; k < cl.Count; k++ {
			idx := len(cams)
			c := camera{class: ci, rng: newPRNG(cameraSeed(sc.Seed, idx)), stored: cl.StoreJ, placement: cl.Policy.Start}
			// First capture: a random phase inside one period (periodic) or
			// one exponential gap (Poisson).
			var first float64
			if cl.Arrival == ArrivalPoisson {
				first = c.rng.ExpFloat64() / cl.FPS
			} else {
				first = c.rng.Float64() / cl.FPS
			}
			cams = append(cams, c)
			classCams[ci] = append(classCams[ci], int32(idx))
			if first < sc.Duration {
				push(first, evCapture, int32(idx), 0)
			}
		}
		if ctls[ci] != nil && cl.Policy.IntervalSec < sc.Duration {
			push(cl.Policy.IntervalSec, evControl, int32(ci), 0)
		}
	}
	if gctl != nil && sc.Global.EpochSec < sc.Duration {
		push(sc.Global.EpochSec, evGlobal, 0, 0)
	}

	// Federated participants, in class then camera order: each owns a
	// jitter stream seeded by its camera's global index under the
	// federated family tag, so the draws are stable under class edits
	// elsewhere and never perturb frame traffic. Round 1's local compute
	// starts at t = 0; rounds run to completion past Duration, the event
	// loop draining them like any other traffic.
	var flParts []flPart
	var flByTier [][]int32
	if fle != nil {
		part := make(map[string]bool, len(sc.Federated.Classes))
		for _, name := range sc.Federated.Classes {
			part[name] = true
		}
		flByTier = make([][]int32, len(nodes))
		flParts = make([]flPart, 0, fle.Cameras())
		for ci := range sc.Classes {
			if len(part) > 0 && !part[sc.Classes[ci].Name] {
				continue
			}
			ti := firstHop[ci]
			for _, camIdx := range classCams[ci] {
				pi := int32(len(flParts))
				flParts = append(flParts, flPart{tier: int32(ti), rng: newPRNG(flSeed(sc.Seed, int(camIdx)))})
				flByTier[ti] = append(flByTier[ti], pi)
			}
		}
		f := sc.Federated
		for pi := range flParts {
			p := &flParts[pi]
			push(f.ComputeSec+f.JitterSec*p.rng.Float64(), evFLReady, int32(pi), 1)
		}
	}
	if dyn != nil {
		// The whole schedule is pushed up front, so same-time entries fire
		// in declaration order via the seq tie-break. Entries past
		// Duration still fire — the drain phase is part of the run.
		for i := range dyn.events {
			push(dyn.events[i].Time, evDynamics, int32(i), 0)
		}
	}

	// Transfer ids are recycled through a free list the moment a transfer
	// completes, so the transfers slice scales with the peak in-flight
	// population instead of growing one slot per frame for the life of the
	// run. Recycling cannot perturb results: a completed id is referenced
	// nowhere (not in any link, not in any pending event), and no output
	// ordering keys off id values, so a frame's record can be allocated at
	// capture and carry its payload through in-camera compute.
	transfers := make([]transfer, 0, sc.Cameras())
	var freeIDs []int
	newTransfer := func(tr transfer) int {
		if n := len(freeIDs) - 1; n >= 0 {
			id := freeIDs[n]
			freeIDs = freeIDs[:n]
			transfers[id] = tr
			return id
		}
		transfers = append(transfers, tr)
		return len(transfers) - 1
	}
	// dropOutage accounts frame transfer id as lost to an outage at tier
	// ti: the camera's queue slot frees (the frame will never arrive), and
	// the drop is charged everywhere a queue drop would be — per class,
	// per tier, telemetry, and both controller kinds — so controllers see
	// and react to the regime shift. The caller settles netInFlight for
	// ids drained out of a link; an id dropped on arrival was in no link.
	dropOutage := func(ti, id int) {
		tr := transfers[id]
		freeIDs = append(freeIDs, id)
		c := &cams[tr.cam]
		c.inflight--
		res.Classes[c.class].DroppedOutage++
		dyn.stats.DroppedOutage++
		dyn.outageDrops[ti]++
		if tel != nil {
			tel.dropOutage(c.class)
		}
		if ctl := ctls[c.class]; ctl != nil {
			ctl.winDrops++
		}
		if gctl != nil {
			gctl.drop(c.class)
		}
	}
	// enterTier routes frame transfer id into tier ti at time now: through
	// the tier's core pool first when it has one (service demand scales
	// with the payload, compPlan), else straight onto the uplink — the
	// no-compute degenerate case, identical to the pre-compute routing.
	// A tier taken down by the dynamics schedule drops arrivals outright.
	enterTier := func(now float64, ti, id int) {
		if dyn != nil && dyn.down[ti] {
			dropOutage(ti, id)
			return
		}
		if ci := compLink[ti]; ci >= 0 {
			tr := &transfers[id]
			tr.compAt = now
			startLink(ci, now, id, compPlan[ti][cams[tr.cam].class]*tr.bytes)
			return
		}
		startLink(ti, now, id, transfers[id].bytes)
	}
	// complete lands transfer id in the cloud at time arrive: only then
	// does the camera's queue slot free, the latency sample exist, and the
	// adaptive controller see it — never before the frame has actually
	// arrived.
	complete := func(arrive float64, id int) {
		tr := transfers[id]
		freeIDs = append(freeIDs, id)
		c := &cams[tr.cam]
		c.inflight--
		st := &res.Classes[c.class]
		st.Offloaded++
		lat := arrive - tr.capturedAt
		if tel != nil {
			tel.observe(c.class, lat)
		} else {
			st.latencies = append(st.latencies, lat)
		}
		if ctl := ctls[c.class]; ctl != nil {
			ctl.observe(lat)
		}
		if gctl != nil {
			gctl.observe(c.class, lat)
		}
		if arrive > res.SimEnd {
			res.SimEnd = arrive
		}
	}
	capture := func(t float64, camIdx int32) {
		c := &cams[camIdx]
		cl := &sc.Classes[c.class]
		st := &res.Classes[c.class]
		st.Captured++

		// Per-frame costs come from the camera's current placement when the
		// class carries a runtime cost table, else from the class fields.
		frameBytes := float64(cl.FrameBytes)
		computeSec := cl.ComputeSeconds
		computeJ := cl.ComputeJ
		if len(cl.Placements) > 0 {
			pc := &cl.Placements[c.placement]
			frameBytes = float64(pc.FrameBytes)
			computeSec = pc.ComputeSeconds
			computeJ = pc.ComputeJ
		}

		offload := frameBytes > 0 && cl.OffloadProb > 0 && c.rng.Float64() < cl.OffloadProb
		queueDropped := false
		if offload && c.inflight >= cl.QueueDepth {
			// Backpressure: the frame is still processed in-camera, but its
			// offload is abandoned (no transmit cost below).
			queueDropped = true
			offload = false
		}
		need := cl.CaptureJ + computeJ
		if offload {
			need += cl.TxFixedJ + cl.TxPerByteJ*frameBytes
		}
		if cl.HarvestW > 0 {
			c.stored += cl.HarvestW * (t - c.lastTop)
			if c.stored > cl.StoreJ {
				c.stored = cl.StoreJ
			}
			c.lastTop = t
			if c.stored < need {
				// The store cannot pay for this frame: skip it entirely and
				// keep charging. Energy starvation is the binding constraint,
				// so a frame dropped here is never also counted against the
				// queue — each drop has exactly one cause.
				st.DroppedEnergy++
				if tel != nil {
					tel.dropEnergy(c.class)
				}
				return
			}
			c.stored -= need
		}
		st.EnergyJ += need
		if queueDropped {
			st.DroppedQueue++
			if tel != nil {
				tel.dropQueue(c.class)
			}
			if ctl := ctls[c.class]; ctl != nil {
				ctl.winDrops++
			}
			if gctl != nil {
				gctl.drop(c.class)
			}
		}
		if offload {
			c.inflight++
			id := newTransfer(transfer{cam: camIdx, capturedAt: t, bytes: frameBytes})
			push(t+computeSec, evReady, int32(id), 0)
		}
	}

	// flAbsorb lands federated transfer id — which just cleared uplink li
	// and its propagation — at the parent tier (the cloud above the root)
	// at time t, where it is aggregated. When the landing completes the
	// round's fan-in there, the tier emits one merged blob on its own
	// uplink; when the cloud's fan-in completes, the merged model starts
	// down the root's downlink.
	flAbsorb := func(t float64, li, id int) {
		tr := transfers[id]
		freeIDs = append(freeIDs, id)
		target := nodes[li].parent
		from := -1
		if tr.cam >= 0 {
			from = li // a camera blob's first uplink is its attach tier
		}
		if !fle.Arrive(target, int(tr.round), t, from) {
			return
		}
		if target >= 0 {
			mb := fle.UpdateBytes()
			mid := newTransfer(transfer{cam: -1, round: tr.round, bytes: mb})
			startLink(target, t, mid, mb)
			return
		}
		bb := fle.ModelBytes()
		bid := newTransfer(transfer{cam: -1, round: tr.round, bytes: bb})
		startLink(downLink[root], t, bid, bb)
	}
	// flDeliver lands the round's model at span tier ti at time t: one
	// copy forwards down each span child's downlink, and the tier's own
	// participants (if any) start the next round's local compute.
	flDeliver := func(t float64, ti, id int) {
		round := int(transfers[id].round)
		freeIDs = append(freeIDs, id)
		fle.Delivered(ti, round, t)
		for _, c := range fle.SpanChildren(ti) {
			bb := fle.ModelBytes()
			cid := newTransfer(transfer{cam: -1, round: int32(round), bytes: bb})
			startLink(downLink[c], t, cid, bb)
		}
		if fle.CamsAt(ti) > 0 && round < fle.Rounds() {
			f := sc.Federated
			for _, pi := range flByTier[ti] {
				p := &flParts[pi]
				push(t+f.ComputeSec+f.JitterSec*p.rng.Float64(), evFLReady, pi, int32(round+1))
			}
		}
	}

	// rehome repoints class ci's first hop at tier ti and reprices the
	// tables the placement controllers score against: forwarding joules
	// follow the new uplink path, and the deterministic delay rows follow
	// the new path's compute scale. rowJ/rowDelay are the outer slices the
	// global controller holds, so element reassignment is visible to it;
	// each class controller aliases its inner row and is repointed
	// explicitly.
	rehome := func(ci, ti int) {
		firstHop[ci] = ti
		pathFwdJ := 0.0
		for li := ti; li >= 0; li = nodes[li].parent {
			pathFwdJ += nodes[li].TxPerByteJ
		}
		rowJ[ci] = classRowEnergies(&sc.Classes[ci], pathFwdJ)
		if scale := classPathScale(nodes, compPlan, ci, ti); scale > 0 {
			if rowDelay == nil {
				rowDelay = make([][]float64, len(sc.Classes))
				if gctl != nil {
					gctl.rowDelay = rowDelay
				}
			}
			rowDelay[ci] = classRowDelays(&sc.Classes[ci], scale)
		} else if rowDelay != nil {
			rowDelay[ci] = nil
		}
		if ctl := ctls[ci]; ctl != nil {
			ctl.rowJ = rowJ[ci]
			if rowDelay != nil {
				ctl.rowDelay = rowDelay[ci]
			}
		}
		moved := int64(len(classCams[ci]))
		dyn.stats.Rehomed += moved
		res.Classes[ci].Rehomed += moved
	}
	// dynFire executes schedule entry i at time t, then re-arms a
	// recurring churn entry from its own seeded stream.
	dynFire := func(t float64, i int) {
		e := &dyn.events[i]
		switch e.Kind {
		case DynCameraJoin:
			ci := dyn.class[i]
			cl := &sc.Classes[ci]
			for k := 0; k < e.Count; k++ {
				// Joiners continue the global camera-seed sequence, so
				// every existing camera's stream is untouched.
				idx := len(cams)
				c := camera{class: ci, rng: newPRNG(cameraSeed(sc.Seed, idx)), stored: cl.StoreJ, lastTop: t, placement: cl.Policy.Start}
				fps := cl.FPS * dyn.fpsMul[ci]
				var first float64
				if cl.Arrival == ArrivalPoisson {
					first = c.rng.ExpFloat64() / fps
				} else {
					first = c.rng.Float64() / fps
				}
				cams = append(cams, c)
				classCams[ci] = append(classCams[ci], int32(idx))
				if t+first < sc.Duration {
					push(t+first, evCapture, int32(idx), 0)
				}
				res.Classes[ci].Cameras++
				res.Classes[ci].Joined++
				dyn.stats.Joined++
			}
		case DynCameraLeave:
			ci := dyn.class[i]
			for k := 0; k < e.Count; k++ {
				members := classCams[ci]
				n := len(members)
				if n == 0 {
					break
				}
				// The leaver is drawn from the entry's own stream
				// (swap-remove keeps the pick O(1)); its in-flight frames
				// still complete, it just captures nothing further.
				pick := dyn.rngs[i].Intn(n)
				camIdx := members[pick]
				members[pick] = members[n-1]
				classCams[ci] = members[:n-1]
				cams[camIdx].departed = true
				res.Classes[ci].Cameras--
				res.Classes[ci].Left++
				dyn.stats.Left++
			}
		case DynLinkDegrade:
			ti := dyn.tier[i]
			dyn.rescale(t, ti, e.Factor)
			links[ti].(capScaler).setCapacity(t, dyn.baseCap[ti]*e.Factor)
			if lidx != nil {
				lidx.invalidate(ti)
			}
		case DynLinkRestore:
			ti := dyn.tier[i]
			dyn.rescale(t, ti, 1)
			links[ti].(capScaler).setCapacity(t, dyn.baseCap[ti])
			if lidx != nil {
				lidx.invalidate(ti)
			}
		case DynTierOutage:
			ti := dyn.tier[i]
			dyn.down[ti] = true
			dyn.downAt[ti] = t
			// In-flight transfers through the dead tier — its uplink and
			// its core pool — are lost, in completion order then waiting
			// order, with no served credit.
			for _, li := range [2]int{ti, compLink[ti]} {
				if li < 0 {
					continue
				}
				ids := links[li].(drainable).drain()
				netInFlight -= len(ids)
				for _, id := range ids {
					dropOutage(ti, id)
				}
				if lidx != nil {
					lidx.invalidate(li)
				}
			}
			if dyn.fall[i] >= 0 {
				for ci := range sc.Classes {
					if firstHop[ci] == ti {
						rehome(ci, dyn.fall[i])
					}
				}
			}
		case DynTierRecover:
			ti := dyn.tier[i]
			dyn.down[ti] = false
			if d := t - dyn.downAt[ti]; d > 0 {
				dyn.downtime[ti] += d
			}
			for ci := range sc.Classes {
				if dyn.home[ci] == ti && firstHop[ci] != ti {
					rehome(ci, ti)
				}
			}
		case DynFPSProfile:
			dyn.fpsMul[dyn.class[i]] = e.Multiplier
		case DynComputeScale:
			li := compLink[dyn.tier[i]]
			links[li].(coreScaler).setCores(t, e.Cores)
			if lidx != nil {
				lidx.invalidate(li)
			}
		}
		if e.EverySec > 0 {
			if nt := t + dyn.rngs[i].ExpFloat64()*e.EverySec; nt < sc.Duration {
				push(nt, evDynamics, int32(i), 0)
			}
		}
	}

	for len(events) > 0 || anyInFlight() {
		if li, lt, ok := nextLinkFinish(); ok && (len(events) == 0 || lt <= events[0].t) {
			if math.IsInf(lt, 1) {
				// Reachable only under dynamics: the schedule is spent, no
				// event remains, and every in-flight transfer is parked on
				// a zero-capacity link nothing will ever restore. Drain
				// them all as outage losses — accounted, never silently
				// lost — and let the loop terminate.
				for i := range links {
					if links[i].InFlight() == 0 {
						continue
					}
					ti := i
					if i >= len(nodes)+len(downOwner) {
						ti = compOwner[i-len(nodes)-len(downOwner)]
					} else if i >= len(nodes) {
						ti = downOwner[i-len(nodes)]
					}
					ids := links[i].(drainable).drain()
					netInFlight -= len(ids)
					for _, id := range ids {
						dropOutage(ti, id)
					}
					if lidx != nil {
						lidx.invalidate(i)
					}
				}
				continue
			}
			// Simulated time is monotone across both branches, so closing
			// telemetry windows before processing puts every observation in
			// the window covering its timestamp.
			if tel != nil {
				tel.advance(lt)
			}
			id := finishLink(li)
			tr := transfers[id]
			if li >= len(nodes)+len(downOwner) {
				// A core pool drained: record the frame's queueing wait
				// (sojourn minus service, clamped against fair-share float
				// drift), then the frame starts transmission on the owning
				// tier's uplink at the same instant.
				ti := compOwner[li-len(nodes)-len(downOwner)]
				w := lt - tr.compAt - compPlan[ti][cams[tr.cam].class]*tr.bytes
				if w < 0 {
					w = 0
				}
				compWait[ti].Add(w)
				startLink(ti, lt, id, tr.bytes)
				continue
			}
			if li >= len(nodes) {
				// A downlink drained: the model blob is delivered at the
				// owning tier one downlink propagation later.
				ti := downOwner[li-len(nodes)]
				if d := nodes[ti].Downlink; d.PropagationSec == 0 {
					flDeliver(lt, ti, id)
				} else {
					push(lt+d.PropagationSec, evFLDeliver, int32(id), int32(ti))
				}
				continue
			}
			nd := &nodes[li]
			if tr.round > 0 {
				// A federated blob cleared one uplink hop: it is absorbed
				// for aggregation where it lands, never forwarded onward —
				// the in-network aggregation that shrinks bytes per hop.
				flUpBytes[li] += tr.bytes
				if nd.PropagationSec == 0 {
					flAbsorb(lt, li, id)
				} else {
					push(lt+nd.PropagationSec, evFLUp, int32(id), int32(li))
				}
				continue
			}
			if li != root {
				// This hop's transmission is done: the frame arrives at the
				// parent tier one propagation delay later. With no delay it
				// enters the parent link at the instant it drains,
				// preserving the legacy two-tier event order exactly.
				if nd.PropagationSec == 0 {
					enterTier(lt, nd.parent, id)
				} else {
					push(lt+nd.PropagationSec, evHop, int32(id), int32(nd.parent))
				}
				continue
			}
			// Root transmission done: the frame still propagates the root
			// hop before it lands in the cloud, which is when its
			// capture-to-arrival latency stops accruing and its completion
			// becomes observable (queue slot, controller telemetry).
			if nd.PropagationSec == 0 {
				complete(lt, id)
			} else {
				push(lt+nd.PropagationSec, evArrive, int32(id), 0)
			}
			continue
		}
		ev := events.pop()
		if tel != nil {
			tel.advance(ev.t)
		}
		switch ev.kind() {
		case evCapture:
			if cams[ev.id].departed {
				break
			}
			capture(ev.t, ev.id)
			c := &cams[ev.id]
			if nt := nextCapture(c, ev.t); nt < sc.Duration {
				push(nt, evCapture, ev.id, 0)
			}
		case evReady:
			id := int(ev.id)
			enterTier(ev.t, firstHop[cams[transfers[id].cam].class], id)
		case evHop:
			enterTier(ev.t, int(ev.aux), int(ev.id))
		case evArrive:
			complete(ev.t, int(ev.id))
		case evControl:
			ci := int(ev.id)
			cl := &sc.Classes[ci]
			ctl := ctls[ci]
			if dir := ctl.decide(cl, cams, classCams[ci]); dir != 0 {
				ctl.move(cl, cams, classCams[ci], dir)
			}
			if nt := ev.t + cl.Policy.IntervalSec; nt < sc.Duration {
				push(nt, evControl, ev.id, 0)
			}
		case evGlobal:
			gctl.epoch(ev.t, &sc, cams, classCams)
			if nt := ev.t + sc.Global.EpochSec; nt < sc.Duration {
				push(nt, evGlobal, 0, 0)
			}
		case evFLReady:
			p := &flParts[ev.id]
			ub := fle.UpdateBytes()
			id := newTransfer(transfer{cam: ev.id, round: ev.aux, bytes: ub})
			startLink(int(p.tier), ev.t, id, ub)
		case evFLUp:
			flAbsorb(ev.t, int(ev.aux), int(ev.id))
		case evFLDeliver:
			flDeliver(ev.t, int(ev.aux), int(ev.id))
		case evDynamics:
			dynFire(ev.t, int(ev.id))
		default:
			return nil, fmt.Errorf("fleet: unknown event kind %d", ev.kind())
		}
	}

	if res.SimEnd < sc.Duration {
		res.SimEnd = sc.Duration
	}
	if fle != nil {
		res.Federated = fle.Stats()
		// The final broadcast can deliver after the last frame drains;
		// the run ends when both have.
		if res.Federated.DoneAt > res.SimEnd {
			res.SimEnd = res.Federated.DoneAt
		}
	}
	if dyn != nil {
		// A tier still down at the end accrues downtime to the run's end.
		for i := range nodes {
			if dyn.down[i] {
				if d := res.SimEnd - dyn.downAt[i]; d > 0 {
					dyn.downtime[i] += d
				}
				dyn.down[i] = false
			}
		}
	}
	for i, nd := range nodes {
		ts := TierStats{
			Name:           nd.Name,
			Parent:         nd.Parent,
			Depth:          nd.depth,
			Gbps:           nd.Uplink.Gbps,
			Contention:     nd.Uplink.Contention,
			PropagationSec: nd.PropagationSec,
			ServedBytes:    links[i].ServedBytes(),
			Transfers:      linkTransfers[i],
			Utilization:    utilization(links[i].ServedBytes(), nd.Uplink.BytesPerSecond(), res.SimEnd),
			TxPerByteJ:     nd.TxPerByteJ,
			ForwardJ:       links[i].ServedBytes() * nd.TxPerByteJ,
		}
		if flUpBytes != nil {
			ts.FLUpBytes = flUpBytes[i]
		}
		if dyn != nil {
			ts.DowntimeSec = dyn.downtime[i]
			ts.OutageDrops = dyn.outageDrops[i]
		}
		if d := nd.Downlink; d != nil {
			dl := links[downLink[i]]
			ts.DownGbps = d.Gbps
			ts.DownContention = d.Contention
			ts.DownPropagationSec = d.PropagationSec
			ts.DownServedBytes = dl.ServedBytes()
			ts.DownTransfers = linkTransfers[downLink[i]]
			ts.DownlinkUtilization = utilization(dl.ServedBytes(), d.BytesPerSecond(), res.SimEnd)
		}
		if li := compLink[i]; li >= 0 {
			cc := nd.Compute
			// Once the run drains, a pool's served "bytes" are exactly the
			// core-seconds it was busy (the conservation the property tests
			// pin), so utilization is busy-share of cores × wall time.
			busy := links[li].ServedBytes()
			cs := &ComputeStats{
				Cores:       cc.Cores,
				Discipline:  cc.Discipline,
				Frames:      linkTransfers[li],
				BusySec:     busy,
				Utilization: utilization(busy, float64(cc.Cores), res.SimEnd),
			}
			if s := compWait[i]; s.Count() > 0 {
				cs.WaitP50 = s.Quantile(0.50)
				cs.WaitP95 = s.Quantile(0.95)
			}
			ts.Compute = cs
		}
		res.Tiers = append(res.Tiers, ts)
	}
	// The top-tier utilization is the root tier's, found by name: tier
	// order is stable today, but the name is the contract.
	if rt := res.TierNamed(nodes[root].Name); rt != nil {
		res.UplinkUtilization = rt.Utilization
	}
	for ci := range sc.Classes {
		cl := &sc.Classes[ci]
		if len(cl.Placements) == 0 {
			continue
		}
		hist := make([]int, len(cl.Placements))
		for _, idx := range classCams[ci] {
			hist[cams[idx].placement]++
		}
		res.Classes[ci].PlacementCounts = hist
		if ctls[ci] != nil {
			res.Classes[ci].Switches = ctls[ci].moves
		}
	}
	if tel != nil {
		tel.finish(res.SimEnd)
		res.TimeSeries = tel.series
	}
	res.finalize(tel)
	for _, ti := range res.Tiers {
		res.Energy.NetworkJ += ti.ForwardJ
	}
	res.Energy.CameraJ = res.Total.EnergyJ
	if res.SimEnd > 0 {
		res.Energy.AvgPowerW = (res.Energy.CameraJ + res.Energy.NetworkJ) / res.SimEnd
	}
	res.Energy.ProjectedW = projectedPowerW(&sc, rowJ, cams, classCams)
	if gctl != nil {
		st := gctl.stats
		res.Global = &st
		res.Total.Switches += st.Moves
	}
	if dyn != nil {
		st := dyn.stats
		res.Dynamics = &st
	}
	return res, nil
}
