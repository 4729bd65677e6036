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

// Link models one shared directed link: finite payload capacity plus a
// contention discipline deciding how concurrent transfers share it. The
// disciplines are direction-agnostic — the same implementations serve a
// tier's uplink (leaf→root offloads and federated updates) and its
// downlink (root→leaf model broadcasts); direction lives in how the
// simulator routes transfers onto links, never in the link itself. The
// simulator drives a link event by event: Start admits a transfer,
// NextFinish peeks the earliest completion under the current in-flight
// set, Finish pops it. Start may move an already-reported NextFinish, so
// the caller must re-peek after every Start.
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
}

// NewLink builds the named contention model over a capacity in bytes/sec.
func NewLink(model string, bytesPerSec float64) (Link, error) {
	if bytesPerSec <= 0 {
		return nil, fmt.Errorf("fleet: link capacity %v must be positive", bytesPerSec)
	}
	switch model {
	case ContentionFairShare:
		return &psUplink{cap: bytesPerSec}, nil
	case ContentionFIFO:
		return &fifoUplink{cap: bytesPerSec}, nil
	}
	return nil, fmt.Errorf("fleet: unknown contention model %q", model)
}

// job is one transfer or frame queued on a link or pool: its id and
// size, in payload bytes on a link and core-seconds in a pool.
type job struct {
	id   int
	size float64
}

// --- FIFO ---

// fifoUplink serializes transfers in arrival order; the head transfer gets
// the full capacity. A large frame head-of-line-blocks everything behind it.
type fifoUplink struct {
	cap        float64
	q          queue.Ring[job]
	headFinish float64 // completion time of the head item, valid when q is not empty
	// headRem is the head item's remaining bytes, maintained only while
	// the link's capacity is zero (a dynamics outage) — headFinish is
	// +Inf then, so the remaining work has to be carried explicitly for
	// the eventual restore.
	headRem float64
	served  float64
}

func (u *fifoUplink) Start(now float64, id int, bytes float64) {
	if u.q.Len() == 0 {
		u.headFinish = now + bytes/u.cap // +Inf on a zero-capacity link
		u.headRem = bytes
	}
	u.q.Push(job{id: id, size: bytes})
}

func (u *fifoUplink) NextFinish() (float64, bool) {
	if u.q.Len() == 0 {
		return 0, false
	}
	return u.headFinish, true
}

func (u *fifoUplink) Finish() int {
	head := u.q.Pop()
	u.served += head.size
	if u.q.Len() > 0 {
		// The next transfer was already queued, so its service starts the
		// instant the head departs.
		next := u.q.Front().size
		u.headFinish += next / u.cap
		u.headRem = next
	}
	return head.id
}

func (u *fifoUplink) InFlight() int        { return u.q.Len() }
func (u *fifoUplink) ServedBytes() float64 { return u.served }

// setCapacity rescales the link to bytesPerSec at time now, conserving
// the head transfer's progress: its remaining bytes continue at the new
// rate. Zero parks the link — the head's remaining work is carried in
// headRem and its finish time becomes +Inf until a later restore.
func (u *fifoUplink) setCapacity(now, bytesPerSec float64) {
	if u.q.Len() > 0 {
		rem := u.headRem
		if u.cap > 0 {
			rem = (u.headFinish - now) * u.cap
			if rem < 0 {
				rem = 0 // float drift guard
			}
		}
		u.headRem = rem
		if bytesPerSec > 0 {
			u.headFinish = now + rem/bytesPerSec
		} else {
			u.headFinish = math.Inf(1)
		}
	}
	u.cap = bytesPerSec
}

// drain removes every in-flight transfer — head first, then waiting
// order — crediting no served bytes: the payloads were lost, not
// delivered.
func (u *fifoUplink) drain() []int {
	ids := make([]int, 0, u.q.Len())
	for u.q.Len() > 0 {
		ids = append(ids, u.q.Pop().id)
	}
	return ids
}

// --- fair share (egalitarian processor sharing) ---

// psUplink implements egalitarian processor sharing with virtual time:
// each of the n in-flight transfers progresses at cap/n, so the virtual
// service level v advances at dv/dt = cap/n and a transfer admitted at
// level v0 with B bytes completes when v reaches v0+B. Events cost
// O(log n) instead of rescaling every in-flight transfer.
type psUplink struct {
	cap    float64
	vnow   float64         // virtual service accrued by every in-flight transfer
	tlast  float64         // wall time at which vnow was computed
	h      queue.Heap[job] // keyed by (virtual finish level, admission seq)
	seq    int64
	served float64
}

// advance moves the virtual clock to wall time t.
func (u *psUplink) advance(t float64) {
	if n := len(u.h); n > 0 && t > u.tlast {
		u.vnow += (t - u.tlast) * u.cap / float64(n)
	}
	u.tlast = t
}

func (u *psUplink) Start(now float64, id int, bytes float64) {
	u.advance(now)
	u.h.Push(queue.Item[job]{T: u.vnow + bytes, Tie: u.seq, P: job{id: id, size: bytes}})
	u.seq++
}

func (u *psUplink) NextFinish() (float64, bool) {
	if len(u.h) == 0 {
		return 0, false
	}
	if u.cap == 0 {
		// A dynamics outage parked the link: the in-flight set exists but
		// nothing completes until a restore.
		return math.Inf(1), true
	}
	remaining := u.h[0].T - u.vnow
	if remaining < 0 {
		remaining = 0 // float drift guard
	}
	return u.tlast + remaining*float64(len(u.h))/u.cap, true
}

func (u *psUplink) Finish() int {
	t, _ := u.NextFinish()
	u.advance(t)
	item := u.h.Pop()
	u.vnow = item.T // pin exactly, absorbing float drift
	u.served += item.P.size
	return item.P.id
}

func (u *psUplink) InFlight() int        { return len(u.h) }
func (u *psUplink) ServedBytes() float64 { return u.served }

// setCapacity rescales the link to bytesPerSec at time now. Virtual
// progress is conserved: the clock advances to now at the old rate
// first, so every in-flight transfer keeps the service it has accrued
// and its remaining virtual work continues at the new rate. Zero parks
// the link (the virtual clock stops; NextFinish reports +Inf).
func (u *psUplink) setCapacity(now, bytesPerSec float64) {
	u.advance(now)
	u.cap = bytesPerSec
}

// drain removes every in-flight transfer in completion order (virtual
// finish level, then admission), crediting no served bytes.
func (u *psUplink) drain() []int {
	ids := make([]int, 0, len(u.h))
	for len(u.h) > 0 {
		ids = append(ids, u.h.Pop().P.id)
	}
	return ids
}
