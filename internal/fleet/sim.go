package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"camsim/internal/fleet/fl"
	"camsim/internal/fleet/quantile"
	"camsim/internal/fleet/queue"
)

// event kinds: a periodic class's earliest pending capture comes due; a
// Poisson class's arrival stream marks one of its cameras to capture; an
// in-camera-processed frame becomes ready for its first-hop link; a
// transfer clears a link's propagation and lands (land); an adaptive
// class's controller makes a placement decision; the global energy-aware
// controller runs one epoch; a federated camera's local training ends
// and its update blob enters the attach uplink; a dynamics schedule
// entry fires (churn, link degradation, tier outage/recovery, rate
// profile or core rescale). evReady and evLand are a frame's stages and
// wait on delay lines; every other kind is an owner's one pending event.
// Link completions themselves are not events — the loop peeks them off
// the links, whose finish times shift as transfers are admitted.
const (
	evPeriodic = iota
	evArrive
	evReady
	evLand
	evControl
	evGlobal
	evFLReady
	evDynamics
)

// event is one scheduled simulator step. It is 24 bytes, not a whole
// cache line, because a large periodic fleet keeps one pending capture
// per camera resident in its classes' rings. The queue orders on (T, Tie);
// Tie holds the queue's scheduling counter shifted left kindBits with the
// event kind in the low bits, which orders exactly like the bare counter
// because the counter is unique. Payload that does not fit evRef lives
// in the transfer record the event names.
type event queue.Item[evRef]

// evRef is an event's payload: a stage keeps it in its line, a periodic
// capture in its class's ring, and any other event in its owner's slot.
type evRef struct {
	// id names the subject: the capturing camera (evPeriodic, evArrive),
	// class (evControl), federated participant (evFLReady), dynamics
	// schedule entry (evDynamics), or transfer (evReady, evLand) — a
	// frame's transfer record exists from capture, so it carries the
	// capture time and payload an evReady needs.
	id int32
	// aux is the capturing camera's class (evPeriodic, evArrive), the link
	// a landing transfer cleared (evLand), the round a federated
	// participant's update belongs to (evFLReady), and 1 on a schedule
	// entry's first firing (evDynamics).
	aux int32
}

// kindBits is the width of the event kind packed under the scheduling
// counter in event.Tie; every kind above must fit in it.
const (
	kindBits = 4
	kindMask = 1<<kindBits - 1
)

// newEvent packs an event scheduled as the queue's seq-th.
func newEvent(t float64, seq int64, kind int, id, aux int32) event {
	return event{T: t, Tie: seq<<kindBits | int64(kind), P: evRef{id: id, aux: aux}}
}

// kind unpacks the event kind from the low bits of Tie.
func (ev *event) kind() int { return int(ev.Tie & kindMask) }

// eventHeap is the loop's whole event queue. Every pending event but a
// frame's stages has an owner that holds at most one at a time: a
// class's next capture, a controller's next tick, the global
// controller's next epoch, the fault schedule's next first firing (its
// cursor), a churn entry's next re-firing, a federated participant's
// next ready. owners keys each owner by that event, re-keyed in place as
// it moves on, and refs holds its payload. A class's key is its next
// capture: a Poisson class's cameras capture on one arrival stream, whose
// one pending arrival is its key, and a periodic class's cameras wait in
// its ring, whose front is. A stage with a constant delay — a class row's
// in-camera compute, a tier's uplink propagation, a declared downlink's
// propagation — waits on lines instead, one FIFO per distinct delay
// value, keyed by byDelay. A line adds its own delay to the loop time it
// is filed at, and loop time never decreases, so each line is sorted by
// (T, Tie) as filed. heads keys every non-empty line by its front,
// re-keyed in place as the front moves on. The earliest event is the
// earlier of the two indexes' minimums, so events pop in the order one
// heap of every event would give, and a fleet of any size keeps one key
// per owner, not one per camera.
//
// The queue numbers every event it schedules, and keys no owner at or
// past the horizon. Everything that touches a line, a ring or an owner's
// key is a method of eventHeap, so a CPU profile charges them to the
// event queue rather than to the loop.
type eventHeap struct {
	lines  []delayLine
	heads  queue.Index // one source per line
	owners queue.Index // one source per owner, numbered by newEngine
	refs   []evRef     // each owner's pending payload
	// rings holds each class's pending periodic captures; nil unless some
	// class is periodic, and a Poisson class's ring is empty. sorted is
	// false while newEngine files the declared cameras, unsorted, and
	// start sorts them.
	rings  []ring
	sorted bool
	// horizon is Duration: no owner is keyed at or past it but a
	// federated participant or the schedule cursor, whose events the
	// drain runs.
	horizon float64
	// seq is the scheduling counter, the number of the next event.
	seq     int64
	byDelay map[float64]int32
}

// ring is one periodic class's pending captures, one per camera, in
// (x, Tie) order, where x is the capture's time on the class's own clock.
// That clock runs at the declared rate: a capture at x re-arms at x +
// period, and a real time t reads x0 + (t − t0) × m on it, m being the
// live fps_profile multiplier, so a capture at x falls at t0 + (x − x0) /
// m, and never before floor, the time of the clock's last step or join.
// A rate step moves only (t0, x0, m), which shortens or stretches what is
// left of every pending period at once. With no step the clock is the
// identity and each capture falls at x itself, the time one heap of every
// camera's capture would give it. The ring is a segment of one slab
// shared by every ring, sized before the run for every camera the class
// will hold, so it never grows and never overflows: each camera, departed
// or not, has at most one pending capture.
type ring struct {
	q                []event // n entries from head, wrapping at len(q)
	head, n          int
	period, fps      float64 // 1/FPS and FPS, at the declared rate
	t0, x0, m, floor float64
}

// delayLine is one FIFO of events that each wait the same delay after
// the loop time they were filed at.
type delayLine struct {
	delay float64
	q     queue.Ring[event]
}

// line returns the index of the line whose delay is d, adding one on
// first use.
func (h *eventHeap) line(d float64) int32 {
	if l, ok := h.byDelay[d]; ok {
		return l
	}
	if h.byDelay == nil {
		h.byDelay = make(map[float64]int32)
	}
	l := h.heads.Add()
	h.lines = append(h.lines, delayLine{delay: d})
	h.byDelay[d] = l
	return l
}

// number returns the next scheduling number.
func (h *eventHeap) number() int64 {
	h.seq++
	return h.seq - 1
}

// set keys owner o's pending event, of kind with payload (id, aux), at
// time t as the seq-th scheduling. arm keys it at t under the next
// number while t falls before the horizon and retires o otherwise, and
// retire leaves o with none pending. A pop leaves its owner's key set,
// so the loop follows each pop of an owner with one of the three, or
// with a class's re-key, before the next pop.
func (h *eventHeap) set(o int32, t float64, seq int64, kind int, id, aux int32) {
	h.refs[o] = evRef{id: id, aux: aux}
	h.owners.Set(o, t, seq<<kindBits|int64(kind))
}

func (h *eventHeap) arm(o int32, t float64, kind int, id, aux int32) {
	if t < h.horizon {
		h.set(o, t, h.number(), kind, id, aux)
		return
	}
	h.retire(o)
}

func (h *eventHeap) retire(o int32) { h.owners.Remove(o) }

// file schedules an event on line l, the line's delay after the loop
// time now.
func (h *eventHeap) file(l int32, now float64, kind int, id, aux int32) {
	ln := &h.lines[l]
	ev := newEvent(now+ln.delay, h.number(), kind, id, aux)
	if ln.q.Len() == 0 {
		h.heads.Set(l, ev.T, ev.Tie)
	}
	ln.q.Push(ev)
}

// next returns the time of the earliest pending event; ok is false when
// none is pending.
func (h *eventHeap) next() (t float64, ok bool) {
	t = math.Inf(1)
	if h.heads.Len() > 0 {
		t, ok = h.heads.Min().T, true
	}
	if h.owners.Len() > 0 {
		t, ok = min(t, h.owners.Min().T), true
	}
	return t, ok
}

// pop removes and returns the earliest pending event, which must exist.
// An owner's event leaves its key set for the loop to move on: a
// periodic class's event is its ring's front capture, and any other
// owner's carries the payload in its slot. A line's pop re-keys the line
// to its next front, or removes it when it empties.
func (h *eventHeap) pop() event {
	if h.owners.Len() > 0 {
		a := h.owners.Min()
		if h.heads.Len() == 0 || ahead(a, h.heads.Min()) {
			if a.Tie&kindMask == evPeriodic {
				r := &h.rings[a.P]
				return event{T: a.T, Tie: a.Tie, P: evRef{id: r.q[r.head].P.id, aux: a.P}}
			}
			return event{T: a.T, Tie: a.Tie, P: h.refs[a.P]}
		}
	}
	f := h.heads.Min()
	ln := &h.lines[f.P]
	ev := ln.q.Pop()
	if ln.q.Len() > 0 {
		next := ln.q.Front()
		h.heads.Set(f.P, next.T, next.Tie)
	} else {
		h.heads.Remove(f.P)
	}
	return ev
}

// periodic gives each class a capture ring of sizes[ci] entries, at the
// declared rate fps[ci], all in one slab; a class of size 0 gets an empty
// one, and a fleet with no periodic class no rings.
func (h *eventHeap) periodic(sizes []int, fps []float64) {
	total := 0
	for _, n := range sizes {
		total += n
	}
	if total == 0 {
		return
	}
	slab := make([]event, total)
	h.rings = make([]ring, len(sizes))
	for ci, n := range sizes {
		h.rings[ci] = ring{q: slab[:n:n], period: 1 / fps[ci], fps: fps[ci], m: 1}
		slab = slab[n:]
	}
}

// start sorts every ring once by (x, Tie), since newEngine files each
// class's cameras in camera order at random phases, and keys every
// periodic class whose first capture falls before the horizon. Later
// filings go to their sorted place.
func (h *eventHeap) start() {
	for ci := range h.rings {
		r := &h.rings[ci]
		if len(r.q) == 0 {
			continue // a Poisson class, keyed by its stream
		}
		slices.SortFunc(r.q[:r.n], func(a, b event) int {
			return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.Tie, b.Tie))
		})
		h.key(ci)
	}
	h.sorted = true
}

// join files camera cam's first capture a fraction u of a period after
// time t on class ci's clock. While the clock is the identity that is t
// + u/FPS.
func (h *eventHeap) join(ci int, t, u float64, cam int32) {
	r := &h.rings[ci]
	ev := newEvent(r.x0+float64((t-r.t0)*r.m)+u/r.fps, h.number(), evPeriodic, cam, 0)
	if !h.sorted {
		r.q[r.n] = ev
		r.n++
		return
	}
	h.insert(r, ev)
	r.floor = t
	h.key(ci)
}

// rearm moves class ci's front capture, which just fired, one period on,
// and rekeys the class.
func (h *eventHeap) rearm(ci int) {
	r := &h.rings[ci]
	ev := h.shift(r)
	ev.T += r.period
	ev.Tie = h.number()<<kindBits | evPeriodic
	h.insert(r, ev)
	h.key(ci)
}

// skip drops class ci's front capture, a departed camera's, and rekeys
// the class.
func (h *eventHeap) skip(ci int) {
	h.shift(&h.rings[ci])
	h.key(ci)
}

// rescale steps class ci's rate to m times its declared rate at time t:
// the clock restarts at t from the x it reads there, so every pending
// capture's remaining wait scales by the old multiplier over the new. A
// step to the live multiplier moves nothing.
func (h *eventHeap) rescale(ci int, t, m float64) {
	r := &h.rings[ci]
	if m == r.m {
		return
	}
	r.x0 += float64((t - r.t0) * r.m)
	r.t0, r.m, r.floor = t, m, t
	h.key(ci)
}

// shift removes and returns ring r's front.
func (h *eventHeap) shift(r *ring) event {
	ev := r.q[r.head]
	if r.head++; r.head == len(r.q) {
		r.head = 0
	}
	r.n--
	return ev
}

// insert files ev in ring r after every entry whose x is not later: its
// Tie is the newest, so that is its (x, Tie) place, found scanning from
// the back. A re-arm lands behind every pending capture of its class,
// each armed at an x no later than the re-armed one's since rounding is
// monotone, so the scan stops at once; only a joiner whose x was read
// off a stepped clock can round past a later re-arm. A joiner shifts the
// entries after it back one slot.
func (h *eventHeap) insert(r *ring, ev event) {
	c := len(r.q)
	j := r.head + r.n
	if j >= c {
		j -= c
	}
	for k := r.n; k > 0; k-- {
		i := j - 1
		if i < 0 {
			i += c
		}
		if r.q[i].T <= ev.T {
			break
		}
		r.q[j] = r.q[i]
		j = i
	}
	r.q[j] = ev
	r.n++
}

// key keys class ci at its front capture's real time, or removes the
// class's key when it has no capture before the horizon. Captures past
// the horizon stay in the ring, where a later rate step can bring them
// before it.
func (h *eventHeap) key(ci int) {
	r := &h.rings[ci]
	if r.n > 0 {
		front := &r.q[r.head]
		t := r.t0 + (front.T-r.x0)/r.m
		if t < r.floor {
			t = r.floor
		}
		if t < h.horizon {
			h.owners.Set(int32(ci), t, front.Tie)
			return
		}
	}
	h.retire(int32(ci))
}

// ahead reports whether a orders before b in (T, Tie).
func ahead(a, b queue.Item[int32]) bool {
	return a.T < b.T || a.T == b.T && a.Tie < b.Tie
}

// camera is one simulated device, 16 bytes: what a capture reads and
// nothing else, so a 100k-camera fleet's 1.6 MB slab stays mostly
// cache-resident. The random stream is embedded by value, 8 bytes inline
// rather than a pointer to rand.NewSource's ~5 KB state; it draws a
// periodic camera's phase and every capture's offload decision, while a
// periodic camera's pending capture waits in its class's ring and a
// Poisson camera's capture times come from its class's arrival stream.
// Its class comes with each capture event (evRef.aux), a departure is a
// bit in the engine's departed bitmap, a harvesting camera's store lives
// in the engine's harvest table, and a frame carries its class in its
// transfer record, so after capture a frame reads its camera only to
// free its queue slot.
type camera struct {
	rng       prng
	placement int32 // current row of the class (Class.rows)
	inflight  int32
}

// store is one harvesting camera's energy store: the joules held and the
// time of the last top-up.
type store struct {
	joules, lastTop float64
}

// frameRow is one class row (Class.rows) as capture charges it: the
// payload it offloads, its in-camera compute joules, and the delay line
// of its in-camera compute seconds.
type frameRow struct {
	bytes, computeJ float64
	ready           int32
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
	// class is a frame's camera class, fixed at capture, so the hops,
	// pools and landing never read the camera.
	class int32
	// next links a released record to the next free id (engine.free), in
	// the 4 bytes that would otherwise pad the three int32s.
	next int32
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
// own jitter stream, in the federated seed family so enabling a
// federated job never perturbs frame traffic draws.
type flPart struct {
	tier int32
	rng  prng
}

// estCap is the most any estimate preallocates: 2^22 items.
const estCap = 1 << 22

// clampEst converts a float capacity estimate to an int usable as a make
// cap. Validation bounds a class's captures over Duration (maxCaptures),
// but not over a decision period, so a valid scenario can push FPS ×
// IntervalSec × Count past int range — int() of an out-of-range float is
// unspecified (negative caps panic make) — and no estimate is worth an
// absurd up-front allocation, so the
// result is clamped to [0, estCap]; NaN maps to 0. Estimates only size
// preallocations, never bound growth, so clamping cannot change results.
func clampEst(x float64) int {
	if !(x > 0) { // also rejects NaN
		return 0
	}
	if x > estCap {
		return estCap
	}
	return int(x)
}

// Run executes one scenario to completion: captures stop at
// Scenario.Duration and every tier drains. The same normalized scenario
// always produces the identical Result.
func Run(sc Scenario) (*Result, error) {
	e, err := newEngine(sc)
	if err != nil {
		return nil, err
	}
	e.loop()
	return e.result(), nil
}

// engine is one run's state: the resolved tier tree and its links, the
// camera population, the in-flight transfer slab, the event queue, the
// Result being filled in, and typed pointers to the optional subsystems,
// each nil unless the scenario configures it.
type engine struct {
	sc    Scenario
	nodes []tierNode
	root  int

	// links holds one uplink per tier node in tier order, then the
	// declared downlinks, then the compute pools: simultaneous
	// completions resolve to the lowest index, so this layout is the
	// tie-break. slots is the link table, one entry per link in the same
	// order, filled as each link is added; downLink and compLink map a
	// tier to its downlink's or pool's link index (-1 without one).
	links              []Link
	slots              []linkSlot
	lidx               *linkIndex
	downLink, compLink []int
	// compPlan is the per-tier, per-class service demand in core-seconds
	// per byte (validateComputeNodes); nil without any compute section, the
	// infinite-compute fast path. compWait sketches each pool's queueing
	// delay.
	compPlan [][]float64
	compWait []*quantile.Sketch

	// firstHop maps each class to the link its cameras transmit on, and
	// fps to its live capture rate: the declared FPS times the current
	// fps_profile multiplier. rowJ prices every class's placement rows in
	// joules per captured frame, forwarding along its uplink path
	// included; rowDelay prices them in deterministic delay seconds
	// (classRowDelays), a nil row unless a compute tier sits on the
	// class's offload path, so scenarios without the section keep the
	// controllers' legacy arithmetic bit for bit. Both placement
	// controllers read these tables in place when they decide; price is
	// the only writer.
	firstHop       []int
	fps            []float64
	rowJ, rowDelay [][]float64
	// rows holds every class's rows (Class.rows) as capture charges them,
	// flat: class ci's rows start at rowBase[ci], and a camera's placement
	// indexes from there.
	rows    []frameRow
	rowBase []int

	cams      []camera
	classCams [][]int32
	// arrivals holds each class's arrival stream (seedArrival family),
	// drawn only for Poisson classes; nil unless some class is Poisson.
	arrivals []prng
	// harvest holds each camera's energy store by camera index; nil
	// unless some class harvests.
	harvest []store
	// departed holds one bit per camera, set when dynamics churn retires
	// it: it captures nothing further, but frames already in flight still
	// complete. Only a periodic capture reads it, since a Poisson arrival
	// marks only a current member; nil unless the schedule holds a
	// camera_leave entry, and sized with the camera slab.
	departed []uint64
	// transfers is the transfer slab; free heads the list of released
	// ids, linked through their records' next (-1 when empty).
	transfers []transfer
	free      int32
	events    eventHeap
	// ctlOwn, gOwn and flOwn are the owners in events.owners of class 0's
	// controller, the global controller and federated participant 0; class
	// ci is owner ci, and the schedule's owners follow dyn.own.
	ctlOwn, gOwn, flOwn int32

	res *Result
	acc accumulator

	ctls      []*controller
	gctl      *globalController
	logs      []latLog // per class, its controllers' one latency log (newLogs)
	cand      []int32  // shuffleMove's candidates, one buffer for every decision
	dyn       *dynamics
	fle       *fl.Engine
	flParts   []flPart
	flByTier  [][]int32
	flUpBytes []float64 // the federated share of each uplink's served bytes
}

// newEngine normalizes and validates a private copy of sc, builds every
// link and subsystem the scenario configures from what validation
// resolved, and schedules the initial events. Validation is its only
// failure: past it, every name is resolved and every link, pool and
// subsystem parameter is proved buildable.
func newEngine(sc Scenario) (*engine, error) {
	e := &engine{sc: sc.clone(), free: -1}
	s := &e.sc
	s.Normalize()
	rv, err := s.validate()
	if err != nil {
		return nil, err
	}
	e.nodes, e.root, e.fle = rv.nodes, rv.root, rv.fle
	nodes := e.nodes
	e.res = newResult(*s)

	e.links = make([]Link, 0, len(nodes))
	e.slots = make([]linkSlot, 0, len(nodes))
	for i, nd := range nodes {
		bps := nd.Uplink.BytesPerSecond()
		e.addLink(newServer(nd.Uplink.Contention, 1, bps), i, roleUp, bps, nd.PropagationSec)
	}
	// Declared downlinks are appended after every uplink, in tier order:
	// uplink indices — and therefore simultaneous-completion tie-breaks —
	// stay exactly the legacy ones, and a downlink tying an uplink
	// resolves after it.
	e.downLink = make([]int, len(nodes))
	for i, nd := range nodes {
		e.downLink[i] = -1
		if nd.Downlink == nil {
			continue
		}
		bps := nd.Downlink.BytesPerSecond()
		e.downLink[i] = e.addLink(newServer(nd.Downlink.Contention, 1, bps), i, roleDown, bps, nd.Downlink.PropagationSec)
	}
	// Tier core pools are links too ("bytes" = core-seconds of service
	// demand), appended after every downlink: uplink and downlink indices
	// — and therefore every legacy tie-break — are untouched, and a
	// compute completion tying a network completion resolves last.
	// Without any compute section no servers exist, no routing changes,
	// and the run is byte-identical to a build that predates the section.
	// compPlan is nil only when no tier has a pool, so a pool always has
	// its plan row.
	e.compPlan = rv.plan
	e.compLink = make([]int, len(nodes))
	for i := range nodes {
		e.compLink[i] = -1
		if nodes[i].Compute == nil {
			continue
		}
		if e.compWait == nil {
			e.compWait = make([]*quantile.Sketch, len(nodes))
		}
		// A pool's capacity is cores × 1 core-second per second, so the
		// shared utilization math reports its busy fraction.
		e.compLink[i] = e.addLink(newComputeServer(nodes[i].Compute), i, rolePool, float64(nodes[i].Compute.Cores), 0)
		e.compWait[i] = quantile.NewSketch()
	}
	e.lidx = newLinkIndex(e.links)
	e.flUpBytes = make([]float64, len(nodes))

	e.firstHop = make([]int, len(s.Classes))
	e.fps = make([]float64, len(s.Classes))
	e.rowJ = make([][]float64, len(s.Classes))
	e.rowDelay = make([][]float64, len(s.Classes))
	e.rowBase = make([]int, len(s.Classes))
	nrows := 0
	for ci := range s.Classes {
		nrows += len(s.Classes[ci].rows())
	}
	e.rows = make([]frameRow, 0, nrows)
	for ci := range s.Classes {
		cl := &s.Classes[ci]
		e.fps[ci] = cl.FPS
		e.price(ci, rv.attach[ci])
		e.rowBase[ci] = len(e.rows)
		for _, r := range cl.rows() {
			e.rows = append(e.rows, frameRow{bytes: float64(r.FrameBytes), computeJ: r.ComputeJ, ready: e.events.line(r.ComputeSeconds)})
		}
	}

	// Every pending event but a frame's stages has an owner holding at
	// most one key in the queue's owner index, numbered here once and
	// sized for: each class, each class's controller, the global
	// controller, then the schedule's cursor and churn entries, or a
	// federated job's participants. No capture is keyed per camera: a
	// periodic class's cameras wait in its ring, sized below for every
	// camera the class will hold, and a frame's stages wait on delay
	// lines, whose rings grow to their own peak.
	n := int32(len(s.Classes))
	e.ctlOwn, e.gOwn, e.flOwn = n, 2*n, 2*n+1

	// The dynamics engine, created only for a non-empty fault schedule:
	// every other run — including one with a present-but-empty dynamics
	// section — stays byte-identical to the legacy path. Validation's
	// replay of its joins sizes every camera structure for the cameras
	// they add, so none regrows.
	if s.Dynamics != nil && len(s.Dynamics.Events) > 0 {
		e.dyn = newDynamics(s, rv.refs, len(nodes), rv.attach)
		e.dyn.own = e.flOwn
		e.flOwn += 1 + int32(len(e.dyn.churn))
	}
	if n = e.flOwn; e.fle != nil {
		n += int32(e.fle.Cameras())
	}
	e.events.owners = queue.NewIndex(int(n))
	e.events.refs = make([]evRef, n)
	e.events.horizon = s.Duration
	e.classCams = make([][]int32, len(s.Classes))
	cams, rings := 0, []int(nil) // each periodic class's ring size
	for ci := range s.Classes {
		cl := &s.Classes[ci]
		n := cl.Count
		if rv.joiners != nil {
			n += rv.joiners[ci]
		}
		cams += n
		e.classCams[ci] = make([]int32, 0, n)
		if cl.Arrival == ArrivalPoisson {
			if e.arrivals == nil {
				e.arrivals = make([]prng, len(s.Classes))
			}
			continue
		}
		if rings == nil {
			rings = make([]int, len(s.Classes))
		}
		rings[ci] = n
	}
	e.events.periodic(rings, e.fps)
	if e.dyn != nil && slices.ContainsFunc(s.Dynamics.Events, func(ev FleetEvent) bool { return ev.Kind == DynCameraLeave }) {
		e.departed = make([]uint64, (cams+63)/64)
	}

	// Latency accumulation is chosen here, once. The streaming collector
	// observes the same completions at the same event times the exact path
	// keeps, and reads its window counts from the class counters, so it
	// cannot perturb the simulation — it only changes how latency
	// statistics are accumulated (sketches instead of sample slices) and,
	// with a window, adds the time series.
	if s.Telemetry != nil && s.Telemetry.Streaming {
		labels := make([]string, len(e.slots))
		for li, sl := range e.slots {
			labels[li] = nodes[sl.owner].Name + roleSuffix[sl.role]
		}
		e.acc = newCollector(s, e.res.Classes, e.links, e.slots, labels, e.dyn)
	} else {
		e.acc = newExactLatencies(s)
	}

	// Transfer ids are recycled through a free list, linked through the
	// released records themselves, the moment a transfer completes, so the
	// transfers slice grows to the peak in-flight population, far below
	// the camera count, instead of one slot per frame for the life of the
	// run. Recycling cannot perturb results: a completed id is referenced
	// nowhere (not in any link, not in any pending event), and no output
	// ordering keys off id values, so a frame's record can be allocated at
	// capture and carry its payload through in-camera compute.
	e.cams = make([]camera, 0, cams)
	if slices.ContainsFunc(s.Classes, func(c Class) bool { return c.HarvestW > 0 }) {
		e.harvest = make([]store, 0, cams)
	}
	e.ctls = newControllers(s)
	e.gctl = newGlobal(s)
	e.logs = newLogs(s)
	for ci := range s.Classes {
		cl := &s.Classes[ci]
		for k := 0; k < cl.Count; k++ {
			e.addCamera(ci, 0)
		}
		if cl.Arrival == ArrivalPoisson {
			// A class's stream is seeded by its index, so its arrivals do
			// not move when another class gains or loses cameras.
			e.arrivals[ci] = newPRNG(streamSeed(s.Seed, seedArrival, ci))
			e.redraw(ci, 0)
		}
		if e.ctls[ci] != nil {
			e.events.arm(e.ctlOwn+int32(ci), cl.Policy.IntervalSec, evControl, int32(ci), 0)
		}
	}
	if e.gctl != nil {
		e.events.arm(e.gOwn, s.Global.EpochSec, evGlobal, 0, 0)
	}

	// Federated participants, in class then camera order: each owns a
	// jitter stream seeded by its camera's global index under the
	// federated family tag, so the draws are stable under class edits
	// elsewhere and never perturb frame traffic. Round 1's local compute
	// starts at t = 0; rounds run to completion past Duration, the event
	// loop draining them like any other traffic. The round engine, which
	// validation built, is pure accounting: the loop reports blob landings
	// and model deliveries to it and starts the transfers it asks for.
	if e.fle != nil {
		e.flByTier = make([][]int32, len(nodes))
		e.flParts = make([]flPart, 0, e.fle.Cameras())
		for ci := range s.Classes {
			if !rv.joins[ci] {
				continue
			}
			ti := e.firstHop[ci]
			for _, camIdx := range e.classCams[ci] {
				pi := int32(len(e.flParts))
				e.flParts = append(e.flParts, flPart{tier: int32(ti), rng: newPRNG(streamSeed(s.Seed, seedFederated, int(camIdx)))})
				e.flByTier[ti] = append(e.flByTier[ti], pi)
			}
		}
		f := s.Federated
		for pi := range e.flParts {
			p := &e.flParts[pi]
			e.events.set(e.flOwn+int32(pi), f.ComputeSec+float64(f.JitterSec*p.rng.Float64()), e.events.number(), evFLReady, int32(pi), 1)
		}
	}
	if e.dyn != nil {
		// The schedule waits behind a cursor: one entry's first firing is
		// pending at a time, and it moves the cursor on as it fires
		// (dynFire). Every entry's scheduling number is reserved here, so
		// same-time entries fire in declaration order, and each orders
		// against every other event as if the whole schedule were keyed
		// now: the next entry is keyed before anything ordered after it can
		// pop. Entries past Duration still fire — the drain phase is part
		// of the run.
		e.dyn.seq0 = e.events.seq
		e.events.seq += int64(len(e.dyn.events))
		e.schedule(0)
	}
	e.events.start()
	return e, nil
}

// price points class ci's first hop at tier ti and prices the tables the
// placement controllers score against: forwarding joules follow the
// uplink path from ti, and the deterministic delay rows follow that
// path's compute scale (a nil row when no pool sits on the path).
func (e *engine) price(ci, ti int) {
	e.firstHop[ci] = ti
	pathFwdJ := 0.0
	for li := ti; li >= 0; li = e.nodes[li].parent {
		pathFwdJ += e.nodes[li].TxPerByteJ
	}
	cl := &e.sc.Classes[ci]
	e.rowJ[ci] = classRowEnergies(cl, pathFwdJ)
	e.rowDelay[ci] = nil
	if scale := classPathScale(e.nodes, e.compPlan, ci, ti); scale > 0 {
		e.rowDelay[ci] = classRowDelays(cl, scale)
	}
}

// addCamera adds one camera of class ci at time t, with a full store
// from t when the run harvests. Its stream continues the global
// camera-seed sequence, so every existing camera's stream is untouched.
// A periodic camera's first capture falls a random phase inside one
// period after t on its class's clock, filed at its place in the class's
// ring; a Poisson camera captures when its class's stream marks it, and
// the caller redraws that stream. It starts at the class's Policy.Start
// row, or at its one row without a table, where Policy.Start is never
// validated.
func (e *engine) addCamera(ci int, t float64) {
	cl := &e.sc.Classes[ci]
	idx := len(e.cams)
	c := camera{rng: newPRNG(streamSeed(e.sc.Seed, seedCamera, idx))}
	if len(cl.Placements) > 0 {
		c.placement = int32(cl.Policy.Start)
	}
	if e.harvest != nil {
		e.harvest = append(e.harvest, store{joules: cl.StoreJ, lastTop: t})
	}
	if cl.Arrival != ArrivalPoisson {
		e.events.join(ci, t, c.rng.Float64(), int32(idx))
	}
	e.cams = append(e.cams, c)
	e.classCams[ci] = append(e.classCams[ci], int32(idx))
}

// redraw draws Poisson class ci's next arrival after time t. Its n
// cameras, each Poisson at the class's live rate, are together one
// Poisson stream at n times that rate whose every arrival marks a camera
// drawn uniformly, and the stream is memoryless: a join, a leave or a
// rate step only redraws the pending arrival from now. An empty class,
// or a draw at or past Duration (arm's horizon), leaves none pending.
//
// The arrival names its camera now, from a peek at the stream's next
// draw, and the pop consumes that draw before it redraws. The peek moves
// no stream: the pop reads the same position with the same n, since
// every change to the class's members redraws, and an arrival replaced
// before it pops costs no draw, so the stream's draws are exactly those
// of a pick made at the pop.
func (e *engine) redraw(ci int, t float64) {
	members := e.classCams[ci]
	if n := len(members); n > 0 {
		a := &e.arrivals[ci]
		at := t + a.ExpFloat64()/(float64(n)*e.fps[ci])
		e.events.arm(int32(ci), at, evArrive, members[a.PeekIntn(n)], int32(ci))
		return
	}
	e.events.retire(int32(ci))
}

// linkRole is what a link carries, and so where a transfer it finishes
// goes next.
type linkRole uint8

const (
	roleUp   linkRole = iota // a tier's uplink
	roleDown                 // a tier's declared downlink
	rolePool                 // a tier's core pool
)

// roleSuffix labels a link in the streaming time series after its owner
// tier's name.
var roleSuffix = [...]string{roleUp: "", roleDown: ":down", rolePool: ":compute"}

// linkSlot is the engine's record of one link: the tier that owns it, its
// role, its nominal capacity (bytes per second, or cores for a pool), the
// delay line a transfer it finishes propagates on (-1 without a
// propagation delay) and the transfers it has completed.
type linkSlot struct {
	owner     int
	role      linkRole
	line      int32
	cap       float64
	transfers int64
}

// addLink appends link l, owned by tier ti in role r with nominal
// capacity c and propagation delay prop, and returns its index.
func (e *engine) addLink(l Link, ti int, r linkRole, c, prop float64) int {
	line := int32(-1)
	if prop > 0 {
		line = e.events.line(prop)
	}
	e.links = append(e.links, l)
	e.slots = append(e.slots, linkSlot{owner: ti, role: r, line: line, cap: c})
	return len(e.links) - 1
}

// schedule moves the schedule's cursor to entry i's first firing,
// marked by aux 1, under the scheduling number newEngine reserved for
// it, or retires the cursor past the last entry.
func (e *engine) schedule(i int) {
	if i == len(e.dyn.events) {
		e.events.retire(e.dyn.own)
		return
	}
	e.events.set(e.dyn.own, e.dyn.events[i].Time, e.dyn.seq0+int64(i), evDynamics, int32(i), 1)
}

// startLink and finishLink admit and complete a transfer on link li,
// keeping the completion index current.
func (e *engine) startLink(li int, now float64, id int, bytes float64) {
	e.links[li].Start(now, id, bytes)
	e.lidx.invalidate(li)
}

func (e *engine) finishLink(li int) int {
	id := e.links[li].Finish()
	e.slots[li].transfers++
	e.lidx.invalidate(li)
	return id
}

// newTransfer files tr under the most recently released id, or a new
// one when none is free.
func (e *engine) newTransfer(tr transfer) int {
	if id := e.free; id >= 0 {
		e.free = e.transfers[id].next
		e.transfers[id] = tr
		return int(id)
	}
	e.transfers = append(e.transfers, tr)
	return len(e.transfers) - 1
}

// release recycles transfer id and returns a copy of its record.
func (e *engine) release(id int) transfer {
	tr := &e.transfers[id]
	tr.next, e.free = e.free, int32(id)
	return *tr
}

// dropOutage loses frame transfer id to an outage at tier ti: the
// camera's queue slot frees (the frame will never arrive) and the drop is
// charged to the class and the tier.
func (e *engine) dropOutage(ti, id int) {
	tr := e.release(id)
	e.cams[tr.cam].inflight--
	e.dyn.outageDrops[ti]++
	e.res.Classes[tr.class].DroppedOutage++
}

// drainLink drops every transfer in flight on link li as lost to an
// outage at tier ti, in completion order then waiting order, with no
// served credit.
func (e *engine) drainLink(li, ti int) {
	for _, id := range e.links[li].drain() {
		e.dropOutage(ti, id)
	}
	e.lidx.invalidate(li)
}

// enterTier routes frame transfer id into tier ti at time now: through
// the tier's core pool first when it has one (service demand scales
// with the payload, compPlan), else straight onto the uplink — the
// no-compute degenerate case, identical to the pre-compute routing.
// A tier taken down by the dynamics schedule drops arrivals outright.
func (e *engine) enterTier(now float64, ti, id int) {
	if e.dyn != nil && e.dyn.down[ti].v > 0 {
		e.dropOutage(ti, id)
		return
	}
	tr := &e.transfers[id]
	if li := e.compLink[ti]; li >= 0 {
		tr.compAt = now
		e.startLink(li, now, id, e.compPlan[ti][tr.class]*tr.bytes)
		return
	}
	e.startLink(ti, now, id, tr.bytes)
}

// complete lands transfer id in the cloud at time arrive: only then
// does the camera's queue slot free, the latency sample exist, and the
// adaptive controllers see it, in their class's one log — never before
// the frame has actually arrived.
func (e *engine) complete(arrive float64, id int) {
	tr := e.release(id)
	e.cams[tr.cam].inflight--
	ci := int(tr.class)
	e.res.Classes[ci].Offloaded++
	lat := arrive - tr.capturedAt
	e.acc.observe(ci, lat)
	if l := e.logs; l != nil && l[ci].watchers > 0 {
		l[ci].lat = append(l[ci].lat, lat)
	}
	if arrive > e.res.SimEnd {
		e.res.SimEnd = arrive
	}
}

// capture runs one frame of camera camIdx, of class ci, at time t: it is
// charged, then dropped, offloaded, or kept in the camera.
func (e *engine) capture(t float64, ci int, camIdx int32) {
	c := &e.cams[camIdx]
	cl := &e.sc.Classes[ci]
	st := &e.res.Classes[ci]
	st.Captured++

	// Per-frame costs come from the camera's current row; the row's
	// in-camera compute time is its ready line's delay.
	r := &e.rows[e.rowBase[ci]+int(c.placement)]
	offload := r.bytes > 0 && cl.OffloadProb > 0 && c.rng.Float64() < cl.OffloadProb
	queueDropped := false
	if offload && int(c.inflight) >= cl.QueueDepth {
		// Backpressure: the frame is still processed in-camera, but its
		// offload is abandoned (no transmit cost below).
		queueDropped = true
		offload = false
	}
	need := cl.CaptureJ + r.computeJ
	if offload {
		need += cl.TxFixedJ + float64(cl.TxPerByteJ*r.bytes)
	}
	if cl.HarvestW > 0 {
		h := &e.harvest[camIdx]
		h.joules += float64(cl.HarvestW * (t - h.lastTop))
		if h.joules > cl.StoreJ {
			h.joules = cl.StoreJ
		}
		h.lastTop = t
		if h.joules < need {
			// The store cannot pay for this frame: skip it entirely and
			// keep charging. Energy starvation is the binding constraint,
			// so a frame dropped here is never also counted against the
			// queue — each drop has exactly one cause.
			st.DroppedEnergy++
			return
		}
		h.joules -= need
	}
	st.EnergyJ += need
	switch {
	case queueDropped:
		st.DroppedQueue++
	case offload:
		c.inflight++
		id := e.newTransfer(transfer{cam: camIdx, class: int32(ci), capturedAt: t, bytes: r.bytes})
		e.events.file(r.ready, t, evReady, int32(id), 0)
	default:
		st.KeptInCamera++
	}
}

// forward moves the transfer link li just finished at time t on to its
// next stage: from a core pool onto the owning tier's uplink, and from
// any other link to its landing one propagation delay later.
func (e *engine) forward(li int, t float64) {
	id := e.finishLink(li)
	sl := &e.slots[li]
	switch {
	case sl.role == rolePool:
		// A core pool drained: record the frame's queueing wait (sojourn
		// minus service, clamped against fair-share float drift), then
		// the frame starts transmission on the owning tier's uplink at
		// the same instant.
		tr, ti := &e.transfers[id], sl.owner
		w := t - tr.compAt - float64(e.compPlan[ti][tr.class]*tr.bytes)
		if w < 0 {
			w = 0
		}
		e.compWait[ti].Add(w)
		e.startLink(ti, t, id, tr.bytes)
	case sl.line < 0:
		// Without a propagation delay the transfer lands at the instant
		// it drains, before any same-instant link completion; a
		// zero-delay line would let those run first.
		e.land(t, li, id)
	default:
		e.events.file(sl.line, t, evLand, int32(id), int32(li))
	}
}

// land delivers transfer id, which cleared link li and its propagation,
// at time t. A downlink's model blob is delivered at the link's owner
// tier; a federated update is absorbed for aggregation one tier up,
// never forwarded onward — the in-network aggregation that shrinks bytes
// per hop; a frame enters the parent tier, or from the root lands in the
// cloud, which is when its capture-to-arrival latency stops accruing and
// its completion becomes observable (queue slot, controller telemetry).
func (e *engine) land(t float64, li, id int) {
	sl := &e.slots[li]
	ti := sl.owner
	switch {
	case sl.role == roleDown:
		e.flDeliver(t, ti, id)
	case e.transfers[id].round > 0:
		e.flAbsorb(t, ti, id)
	case ti != e.root:
		e.enterTier(t, e.nodes[ti].parent, id)
	default:
		e.complete(t, id)
	}
}

// flAbsorb lands federated transfer id — which just cleared uplink li
// and its propagation — at the parent tier (the cloud above the root)
// at time t, where it is aggregated, and counts its bytes in the
// uplink's federated share. When the landing completes the round's
// fan-in there, the tier emits one merged blob on its own uplink; when
// the cloud's fan-in completes, the merged model starts down the root's
// downlink.
func (e *engine) flAbsorb(t float64, li, id int) {
	tr := e.release(id)
	e.flUpBytes[li] += tr.bytes
	target := e.nodes[li].parent
	from := -1
	if tr.cam >= 0 {
		from = li // a camera blob's first uplink is its attach tier
	}
	if !e.fle.Arrive(target, int(tr.round), t, from) {
		return
	}
	if target >= 0 {
		mb := e.fle.UpdateBytes()
		mid := e.newTransfer(transfer{cam: -1, round: tr.round, bytes: mb})
		e.startLink(target, t, mid, mb)
		return
	}
	bb := e.fle.ModelBytes()
	bid := e.newTransfer(transfer{cam: -1, round: tr.round, bytes: bb})
	e.startLink(e.downLink[e.root], t, bid, bb)
}

// flDeliver lands the round's model at span tier ti at time t: one
// copy forwards down each span child's downlink, and the tier's own
// participants (if any) start the next round's local compute.
func (e *engine) flDeliver(t float64, ti, id int) {
	round := int(e.release(id).round)
	e.fle.Delivered(ti, round, t)
	for _, c := range e.fle.SpanChildren(ti) {
		bb := e.fle.ModelBytes()
		cid := e.newTransfer(transfer{cam: -1, round: int32(round), bytes: bb})
		e.startLink(e.downLink[c], t, cid, bb)
	}
	if e.fle.CamsAt(ti) > 0 && round < e.fle.Rounds() {
		f := e.sc.Federated
		for _, pi := range e.flByTier[ti] {
			p := &e.flParts[pi]
			e.events.set(e.flOwn+pi, t+f.ComputeSec+float64(f.JitterSec*p.rng.Float64()), e.events.number(), evFLReady, pi, int32(round+1))
		}
	}
}

// rehome repoints class ci's first hop at tier ti and reprices its
// tables (price), which both controllers read at their next decision.
func (e *engine) rehome(ci, ti int) {
	e.price(ci, ti)
	e.res.Classes[ci].Rehomed += int64(len(e.classCams[ci]))
}

// dynFire executes schedule entry i at time t, then re-arms a
// recurring churn entry from its own seeded stream, or retires it at
// the horizon. An entry's first firing first moves the schedule's cursor
// on to the next entry's.
func (e *engine) dynFire(t float64, i int, first bool) {
	dyn := e.dyn
	if first {
		e.schedule(i + 1)
	}
	ev, ref := &dyn.events[i], dyn.refs[i]
	switch ev.Kind {
	case DynCameraJoin:
		ci := int(ref.class)
		for k := 0; k < ev.Count; k++ {
			e.addCamera(ci, t)
			e.res.Classes[ci].Joined++
		}
	case DynCameraLeave:
		ci, rng := ref.class, dyn.stream(i)
		for k := 0; k < ev.Count; k++ {
			members := e.classCams[ci]
			n := len(members)
			if n == 0 {
				break
			}
			// The leaver is drawn from the entry's own stream
			// (swap-remove keeps the pick O(1)); its in-flight frames
			// still complete, it just captures nothing further.
			pick := rng.Intn(n)
			camIdx := members[pick]
			members[pick] = members[n-1]
			e.classCams[ci] = members[:n-1]
			e.departed[camIdx>>6] |= 1 << (camIdx & 63)
			e.res.Classes[ci].Left++
		}
	case DynLinkDegrade, DynLinkRestore:
		factor := 1.0
		if ev.Kind == DynLinkDegrade {
			factor = ev.Factor
		}
		ti := int(ref.tier)
		dyn.capacity[ti].set(t, factor)
		e.links[ti].setCapacity(t, e.slots[ti].cap*factor)
		e.lidx.invalidate(ti)
	case DynTierOutage:
		ti := int(ref.tier)
		dyn.down[ti].set(t, 1)
		// In-flight transfers through the dead tier — its uplink and
		// its core pool — are lost.
		for _, li := range [2]int{ti, e.compLink[ti]} {
			if li >= 0 {
				e.drainLink(li, ti)
			}
		}
		if ref.fall >= 0 {
			for ci := range e.sc.Classes {
				if e.firstHop[ci] == ti {
					e.rehome(ci, int(ref.fall))
				}
			}
		}
	case DynTierRecover:
		ti := int(ref.tier)
		dyn.down[ti].set(t, 0)
		for ci := range e.sc.Classes {
			if dyn.home[ci] == ti && e.firstHop[ci] != ti {
				e.rehome(ci, ti)
			}
		}
	case DynFPSProfile:
		ci := ref.class
		e.fps[ci] = e.sc.Classes[ci].FPS * ev.Multiplier
		if e.sc.Classes[ci].Arrival != ArrivalPoisson {
			e.events.rescale(int(ci), t, ev.Multiplier)
		}
	case DynComputeScale:
		li := e.compLink[ref.tier]
		e.links[li].setCores(t, ev.Cores)
		e.lidx.invalidate(li)
	}
	// A join, a leave or a rate step changes its class's rate from now
	// on. A Poisson class redraws its pending arrival at once, which then
	// names a current member; a periodic class has already moved its
	// clock (rescale) or filed a joiner's first capture (addCamera), and a
	// leaver's pending capture is skipped when it comes due.
	if ci := int(ref.class); ci >= 0 && e.sc.Classes[ci].Arrival == ArrivalPoisson {
		e.redraw(ci, t)
	}
	if ev.EverySec > 0 {
		e.events.arm(dyn.owner(i), ev.next(t, dyn.stream(i)), evDynamics, int32(i), 0)
	}
}

// drainStalled ends a stalled run. It is reachable only under dynamics:
// the schedule is spent, no event remains, and every in-flight transfer
// is parked on a zero-capacity link nothing will ever restore. They all
// drain as outage losses at their link's tier — accounted, never
// silently lost — and the loop terminates.
func (e *engine) drainStalled() {
	for li, l := range e.links {
		if l.InFlight() > 0 {
			e.drainLink(li, e.slots[li].owner)
		}
	}
}

// loop runs events and link completions in time order until no event is
// pending and the link index holds no busy link. Link completions are
// not events: the loop peeks them off the links, whose finish times
// shift as transfers are admitted, and a completion runs before an event
// at the same instant.
func (e *engine) loop() {
	for {
		t, pending := e.events.next()
		if li, lt, busy := e.lidx.peek(); busy && (!pending || lt <= t) {
			if math.IsInf(lt, 1) {
				e.drainStalled()
				continue
			}
			// Simulated time is monotone across both branches, so closing
			// telemetry windows before processing puts every observation in
			// the window covering its timestamp.
			e.acc.advance(lt)
			e.forward(li, lt)
			continue
		}
		if !pending {
			return
		}
		ev := e.events.pop()
		e.acc.advance(ev.T)
		switch ev.kind() {
		case evPeriodic:
			ci, cam := int(ev.P.aux), ev.P.id
			if e.departed != nil && e.departed[cam>>6]&(1<<(cam&63)) != 0 {
				e.events.skip(ci)
				break
			}
			e.capture(ev.T, ci, cam)
			e.events.rearm(ci)
		case evArrive:
			ci := int(ev.P.aux)
			e.arrivals[ci].Uint64() // the draw redraw peeked to name the camera
			e.capture(ev.T, ci, ev.P.id)
			e.redraw(ci, ev.T)
		case evReady:
			id := int(ev.P.id)
			e.enterTier(ev.T, e.firstHop[e.transfers[id].class], id)
		case evLand:
			e.land(ev.T, int(ev.P.aux), int(ev.P.id))
		case evControl:
			ci := int(ev.P.id)
			if dir := e.ctls[ci].decide(e, ci); dir != 0 {
				e.ctls[ci].move(e, ci, dir)
			}
			e.events.arm(e.ctlOwn+ev.P.id, ev.T+e.sc.Classes[ci].Policy.IntervalSec, evControl, ev.P.id, 0)
		case evGlobal:
			e.gctl.epoch(ev.T, e)
			e.events.arm(e.gOwn, ev.T+e.sc.Global.EpochSec, evGlobal, 0, 0)
		case evFLReady:
			// The cloud's barrier sets a participant's next ready only after
			// its last one ran.
			e.events.retire(e.flOwn + ev.P.id)
			p := &e.flParts[ev.P.id]
			ub := e.fle.UpdateBytes()
			id := e.newTransfer(transfer{cam: ev.P.id, round: ev.P.aux, bytes: ub})
			e.startLink(int(p.tier), ev.T, id, ub)
		case evDynamics:
			e.dynFire(ev.T, int(ev.P.id), ev.P.aux > 0)
			// An entry past the last landing still ends the run no
			// sooner than its own time: the outage it closes accrues up
			// to it.
			e.res.SimEnd = max(e.res.SimEnd, ev.T)
		default:
			// Only the loop schedules events, and only of the kinds above.
			panic(fmt.Sprintf("fleet: unknown event kind %d", ev.kind()))
		}
	}
}

// result closes out the drained run: the end time, per-tier accounting,
// final placements, percentiles and totals, and the energy summary.
func (e *engine) result() *Result {
	res, sc := e.res, &e.sc
	if res.SimEnd < sc.Duration {
		res.SimEnd = sc.Duration
	}
	if e.fle != nil {
		res.Federated = e.fle.Stats()
		// The final broadcast can deliver after the last frame drains;
		// the run ends when both have.
		if res.Federated.DoneAt > res.SimEnd {
			res.SimEnd = res.Federated.DoneAt
		}
	}
	links := e.links
	for i, nd := range e.nodes {
		ts := TierStats{
			Name:           nd.Name,
			Parent:         nd.Parent,
			Depth:          nd.depth,
			Gbps:           nd.Uplink.Gbps,
			Contention:     nd.Uplink.Contention,
			PropagationSec: nd.PropagationSec,
			ServedBytes:    links[i].ServedBytes(),
			Transfers:      e.slots[i].transfers,
			Utilization:    utilization(links[i].ServedBytes(), e.slots[i].cap, res.SimEnd),
			TxPerByteJ:     nd.TxPerByteJ,
			ForwardJ:       links[i].ServedBytes() * nd.TxPerByteJ,
			FLUpBytes:      e.flUpBytes[i],
		}
		if e.dyn != nil {
			// A tier still down at the end accrues downtime to the run's
			// end; the outage stays open, so the time series' last windows
			// see it too.
			ts.DowntimeSec = e.dyn.down[i].at(res.SimEnd)
			ts.OutageDrops = e.dyn.outageDrops[i]
		}
		if d := nd.Downlink; d != nil {
			dl, ds := links[e.downLink[i]], e.slots[e.downLink[i]]
			ts.DownGbps = d.Gbps
			ts.DownContention = d.Contention
			ts.DownPropagationSec = d.PropagationSec
			ts.DownServedBytes = dl.ServedBytes()
			ts.DownTransfers = ds.transfers
			ts.DownlinkUtilization = utilization(dl.ServedBytes(), ds.cap, res.SimEnd)
		}
		if li := e.compLink[i]; li >= 0 {
			cc := nd.Compute
			// Once the run drains, a pool's served "bytes" are exactly the
			// core-seconds it was busy (the conservation the property tests
			// pin), so utilization is busy-share of cores × wall time.
			busy := links[li].ServedBytes()
			cs := &ComputeStats{
				Cores:       cc.Cores,
				Discipline:  cc.Discipline,
				Frames:      e.slots[li].transfers,
				BusySec:     busy,
				Utilization: utilization(busy, e.slots[li].cap, res.SimEnd),
			}
			if s := e.compWait[i]; s.Count() > 0 {
				var p [2]float64
				s.Quantiles(p[:], 0.50, 0.95)
				cs.WaitP50, cs.WaitP95 = p[0], p[1]
			}
			ts.Compute = cs
		}
		res.Tiers = append(res.Tiers, ts)
	}
	// The top-tier utilization is the root tier's: Tiers is in node order.
	res.UplinkUtilization = res.Tiers[e.root].Utilization
	for ci := range sc.Classes {
		cl := &sc.Classes[ci]
		res.Classes[ci].Cameras = len(e.classCams[ci])
		if len(cl.Placements) == 0 {
			continue
		}
		hist := make([]int, len(cl.Placements))
		for _, idx := range e.classCams[ci] {
			hist[e.cams[idx].placement]++
		}
		res.Classes[ci].PlacementCounts = hist
	}
	res.TimeSeries = e.acc.finish(res.SimEnd)
	res.finalize(e.acc)
	if e.dyn != nil {
		// The ledger's counts are the fleet total's: each was counted once,
		// on its class.
		tot := &res.Total
		res.Dynamics = &DynamicsStats{Events: len(e.dyn.events), Joined: tot.Joined, Left: tot.Left, Rehomed: tot.Rehomed, DroppedOutage: tot.DroppedOutage}
	}
	for _, ti := range res.Tiers {
		res.Energy.NetworkJ += ti.ForwardJ
	}
	res.Energy.CameraJ = res.Total.EnergyJ
	if res.SimEnd > 0 {
		res.Energy.AvgPowerW = (res.Energy.CameraJ + res.Energy.NetworkJ) / res.SimEnd
	}
	res.Energy.ProjectedW = e.projectedPowerW()
	if e.gctl != nil {
		st := e.gctl.stats
		res.Global = &st
		res.Total.Switches += st.Moves
	}
	return res
}
