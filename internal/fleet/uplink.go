package fleet

import (
	"fmt"
	"math"

	"camsim/internal/fleet/queue"
)

// Contention model names.
const (
	ContentionFairShare = "fair-share"
	ContentionFIFO      = "fifo"
)

// Link models one shared server: a tier's uplink or downlink, or its core
// pool. Every server is a number of identical cores, each serving work at
// one speed, under a contention discipline deciding how concurrent jobs
// share them. A network link is one core whose speed is its capacity in
// bytes/sec; a core pool is Cores cores, each serving one core-second of
// demand per second. The disciplines are direction-agnostic — the same
// implementations serve a tier's uplink (leaf→root offloads and federated
// updates) and its downlink (root→leaf model broadcasts); direction lives
// in how the simulator routes transfers onto links, never in the link
// itself. The simulator drives a link event by event: Start admits a
// transfer, NextFinish peeks the earliest completion under the current
// in-flight set, Finish pops it. Start may move an already-reported
// NextFinish, so the caller must re-peek after every Start.
type Link interface {
	// Start admits transfer id of the given size at time now. now must not
	// precede any previously observed event time.
	Start(now float64, id int, bytes float64)
	// NextFinish returns the earliest completion time, or ok=false when
	// nothing is in flight.
	NextFinish() (t float64, ok bool)
	// Finish completes and returns the transfer NextFinish reported.
	Finish() (id int)
	// InFlight returns the number of admitted, unfinished transfers.
	InFlight() int
	// ServedBytes returns the total payload of completed transfers.
	ServedBytes() float64

	// setCapacity rescales every core to speed at time now, conserving
	// the service each transfer has received: the remaining work
	// continues at the new speed. Zero parks the link — NextFinish
	// reports +Inf until a later rescale restores it.
	setCapacity(now, speed float64)
	// setCores resizes the link to cores at time now, conserving progress
	// the same way. A FIFO link promotes waiting transfers onto new cores
	// at once and never preempts on a shrink.
	setCores(now float64, cores int)
	// drain removes every in-flight transfer — in completion order, then
	// waiting order — crediting no served bytes: the payloads were lost,
	// not delivered.
	drain() []int
}

// NewLink builds the named contention model over a capacity in bytes/sec:
// one core at that speed. It checks what it is given; the engine, whose
// links validation has already checked, calls newServer directly.
func NewLink(model string, bytesPerSec float64) (Link, error) {
	if bytesPerSec <= 0 {
		return nil, fmt.Errorf("fleet: link capacity %v must be positive", bytesPerSec)
	}
	if model != ContentionFairShare && model != ContentionFIFO {
		return nil, fmt.Errorf("fleet: unknown contention model %q", model)
	}
	return newServer(model, 1, bytesPerSec), nil
}

// newComputeServer builds a tier's core pool as a Link whose "bytes" are
// core-seconds of service demand: Cores cores at one core-second per
// second. The event loop drives it with the same Start/NextFinish/Finish
// protocol as the network links, so compute completions need no new
// event kinds and inherit the deterministic (time, link index) tie-break.
func newComputeServer(cc *ComputeConfig) Link { return newServer(cc.Discipline, cc.Cores, 1) }

// newServer builds every link and pool: cores cores, each serving speed
// units of work per second, fair-shared or in FIFO order. It checks
// nothing: validation admits only the two disciplines and positive
// speeds and core counts.
func newServer(discipline string, cores int, speed float64) Link {
	if discipline == ContentionFairShare {
		return &psServer{cores: float64(cores), speed: speed}
	}
	return &fifoServer{cores: cores, speed: speed}
}

// job is one transfer or frame queued on a link or pool: its id and
// size, in payload bytes on a link and core-seconds in a pool.
type job struct {
	id   int
	size float64
}

// --- FIFO ---

// fifoServer serves jobs in arrival order: up to cores jobs are in
// service at once, each on its own core at full speed; the rest wait and
// take the core the earliest completion frees. On a one-core link a
// large frame head-of-line-blocks everything behind it.
type fifoServer struct {
	cores  int
	speed  float64         // work per second on each core
	busy   queue.Heap[job] // in service, keyed by (finish time, admission seq)
	wait   queue.Ring[job] // waiting jobs, arrival order
	seq    int64
	served float64
}

// serve puts j on a core from time now. While the server is parked
// (speed 0) a job's key is its remaining work rather than its finish
// time, which is what a restore needs (setCapacity).
func (s *fifoServer) serve(now float64, j job) {
	t := j.size
	if s.speed > 0 {
		t = now + j.size/s.speed
	}
	s.busy.Push(queue.Item[job]{T: t, Tie: s.seq, P: j})
	s.seq++
}

func (s *fifoServer) Start(now float64, id int, size float64) {
	if len(s.busy) < s.cores {
		s.serve(now, job{id: id, size: size})
		return
	}
	s.wait.Push(job{id: id, size: size})
}

func (s *fifoServer) NextFinish() (float64, bool) {
	if len(s.busy) == 0 {
		return 0, false
	}
	if s.speed == 0 {
		return math.Inf(1), true
	}
	return s.busy[0].T, true
}

func (s *fifoServer) Finish() int {
	it := s.busy.Pop()
	s.served += it.P.size
	if s.wait.Len() > 0 && len(s.busy) < s.cores {
		// The freed core takes the longest-waiting job the instant the
		// finished one departs. The cores check only bites after a
		// shrink: jobs in service run to completion, and nothing is
		// promoted until the busy population fits the new size.
		s.serve(it.T, s.wait.Pop())
	}
	return it.P.id
}

func (s *fifoServer) InFlight() int        { return len(s.busy) + s.wait.Len() }
func (s *fifoServer) ServedBytes() float64 { return s.served }

// setCapacity turns each key into the job's remaining work at the old
// speed, then back into a finish time at the new one; parked, the key
// stays the remaining work. Old keys map to new ones monotonically, so
// the heap stays ordered by time.
func (s *fifoServer) setCapacity(now, speed float64) {
	for i := range s.busy {
		it := &s.busy[i]
		if s.speed > 0 {
			it.T = max((it.T-now)*s.speed, 0) // the clamp absorbs float drift
		}
		if speed > 0 {
			it.T = now + it.T/speed
		}
	}
	s.speed = speed
}

func (s *fifoServer) setCores(now float64, cores int) {
	s.cores = cores
	for len(s.busy) < s.cores && s.wait.Len() > 0 {
		s.serve(now, s.wait.Pop())
	}
}

func (s *fifoServer) drain() []int {
	ids := make([]int, 0, s.InFlight())
	for len(s.busy) > 0 {
		ids = append(ids, s.busy.Pop().P.id)
	}
	for s.wait.Len() > 0 {
		ids = append(ids, s.wait.Pop().id)
	}
	return ids
}

// --- fair share (egalitarian processor sharing) ---

// psServer shares its cores equally among the n jobs in service, no job
// running faster than one core: each progresses at speed × min(1,
// cores/n), so an underloaded pool runs every frame at full speed
// instead of splitting idle cores. It keeps virtual time: the service
// level v every job has received advances at that rate, and a job
// admitted at level v0 with size S completes when v reaches v0+S, so an
// event costs O(log n) instead of rescaling every job.
type psServer struct {
	cores  float64
	speed  float64         // work per second on each core
	vnow   float64         // virtual service accrued by every job in service
	tlast  float64         // wall time at which vnow was computed
	h      queue.Heap[job] // keyed by (virtual finish level, admission seq)
	seq    int64
	served float64
}

// advance moves the virtual clock to wall time t.
func (s *psServer) advance(t float64) {
	if n := float64(len(s.h)); n > 0 && t > s.tlast {
		if n > s.cores {
			s.vnow += (t - s.tlast) * s.speed * s.cores / n
		} else {
			s.vnow += (t - s.tlast) * s.speed
		}
	}
	s.tlast = t
}

func (s *psServer) Start(now float64, id int, size float64) {
	s.advance(now)
	s.h.Push(queue.Item[job]{T: s.vnow + size, Tie: s.seq, P: job{id: id, size: size}})
	s.seq++
}

func (s *psServer) NextFinish() (float64, bool) {
	if len(s.h) == 0 {
		return 0, false
	}
	if s.speed == 0 {
		return math.Inf(1), true
	}
	remaining := s.h[0].T - s.vnow
	if remaining < 0 {
		remaining = 0 // float drift guard
	}
	if n := float64(len(s.h)); n > s.cores {
		return s.tlast + remaining*n/(s.speed*s.cores), true
	}
	return s.tlast + remaining/s.speed, true
}

// Finish moves the clock to the finish NextFinish reports. There the
// virtual clock stands at the finished job's level, so it is pinned to
// that level exactly, absorbing float drift, rather than advanced.
func (s *psServer) Finish() int {
	s.tlast, _ = s.NextFinish()
	it := s.h.Pop()
	s.vnow = it.T
	s.served += it.P.size
	return it.P.id
}

func (s *psServer) InFlight() int        { return len(s.h) }
func (s *psServer) ServedBytes() float64 { return s.served }

// setCapacity and setCores advance the virtual clock at the old rate
// first, so every job keeps the service it has accrued. Parked, the
// clock stops.
func (s *psServer) setCapacity(now, speed float64) {
	s.advance(now)
	s.speed = speed
}

func (s *psServer) setCores(now float64, cores int) {
	s.advance(now)
	s.cores = float64(cores)
}

func (s *psServer) drain() []int {
	ids := make([]int, 0, len(s.h))
	for len(s.h) > 0 {
		ids = append(ids, s.h.Pop().P.id)
	}
	return ids
}
