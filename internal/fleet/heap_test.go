package fleet

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"camsim/internal/fleet/queue"
)

// refHeap adapts a slice + comparator to container/heap.Interface — the
// reference implementation queue.Heap must match pop for pop.
type refHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *refHeap[T]) Len() int           { return len(h.items) }
func (h *refHeap[T]) Less(i, j int) bool { return h.less(h.items[i], h.items[j]) }
func (h *refHeap[T]) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refHeap[T]) Push(x any)         { h.items = append(h.items, x.(T)) }
func (h *refHeap[T]) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// len returns the number of pending events outside the rings: one per
// keyed owner, and every line's.
func (h *eventHeap) len() int {
	n := h.owners.Len()
	for i := range h.lines {
		n += h.lines[i].q.Len()
	}
	return n
}

// TestRecordLayout pins the per-camera and per-transfer records: a
// 16-byte camera keeps a 100k-camera fleet's capture reads in a 1.6 MB
// slab, and a frame's transfer carries its class and, once released, the
// free list's link in 40 bytes.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(camera{}); got != 16 {
		t.Errorf("camera is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(transfer{}); got != 40 {
		t.Errorf("transfer is %d bytes, want 40", got)
	}
	if got := unsafe.Offsetof(transfer{}.next); got != 12 {
		t.Errorf("transfer's free-list link at offset %d, want 12, in the padding after its three int32s", got)
	}
}

// eventLess is the reference (t, seq) order the event queue must follow.
func eventLess(a, b event) bool { return a.T < b.T || (a.T == b.T && a.Tie < b.Tie) }

// TestEventLayout pins the event record at 24 bytes and checks that the
// kind packed under the scheduling counter round-trips at the field
// limits without disturbing the counter's order.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Fatalf("event is %d bytes, want 24", got)
	}
	if evDynamics >= 1<<kindBits {
		t.Fatalf("event kind %d does not fit in %d bits", evDynamics, kindBits)
	}
	const seq = 1<<40 + 3
	for kind := evPeriodic; kind <= evDynamics; kind++ {
		ev := newEvent(2.5, seq+int64(kind), kind, math.MaxInt32, math.MaxInt32)
		if ev.kind() != kind || ev.Tie>>kindBits != seq+int64(kind) ||
			ev.P.id != math.MaxInt32 || ev.P.aux != math.MaxInt32 || ev.T != 2.5 {
			t.Errorf("kind %d: round trip gave %+v (kind %d, seq %d)", kind, ev, ev.kind(), ev.Tie>>kindBits)
		}
		// A later-scheduled event orders after an earlier one whatever the
		// two kinds are.
		earlier := newEvent(2.5, seq+int64(kind)-1, evDynamics, 0, 0)
		if !eventLess(earlier, ev) || eventLess(ev, earlier) {
			t.Errorf("kind %d: seq order lost against an earlier evDynamics", kind)
		}
	}
}

// TestDelayLinesPerDelay pins one delay line per distinct delay value:
// BenchmarkHugeFleet's 41-link tree, with 32 classes sharing one compute
// time, files every stage on 4 lines (5 ms compute; 0.2, 2 and 10 ms
// propagation), where one line per link and class row would make 73.
func TestDelayLinesPerDelay(t *testing.T) {
	e, err := newEngine(deepFleetScenario(320))
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, l := range e.events.lines {
		got = append(got, l.delay)
	}
	if want := []float64{0.002, 0.01, 0.0002, 0.005}; !slices.Equal(got, want) {
		t.Fatalf("line delays %v, want %v", got, want)
	}
}

// TestHeapCountsClassesNotCameras pins what newEngine keys for a periodic
// fleet: nothing per camera. BenchmarkPeriodicFleet's 30k periodic
// cameras in 32 classes leave the owner index holding 33 keys, one per
// class and the schedule cursor's, among 66 owners (each class, each
// class's controller, the global controller and the cursor: the schedule
// has no churn entry), while the rings hold the cameras.
func TestHeapCountsClassesNotCameras(t *testing.T) {
	sc := periodicFleetScenario()
	e, err := newEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	h := &e.events
	held := 0
	for _, r := range h.rings {
		held += r.n
	}
	if keys, owners := h.owners.Len(), len(h.refs); keys != len(sc.Classes)+1 || owners != 2*len(sc.Classes)+2 || held != sc.Cameras() {
		t.Errorf("%d keys among %d owners over rings of %d captures, want %d among %d and %d captures",
			keys, owners, held, len(sc.Classes)+1, 2*len(sc.Classes)+2, sc.Cameras())
	}
}

// drive feeds an identical randomized push/pop interleaving (~60% pushes,
// then a full drain) through a queue.Heap and the container/heap
// reference, comparing every popped item whole. With unique keys any
// correct min-heap passes; where keys repeat, only one that makes
// container/heap's comparisons pops equal keys in the same order.
func drive[P comparable](t *testing.T, rng *rand.Rand, gen func(i int) queue.Item[P]) {
	t.Helper()
	var h queue.Heap[P]
	ref := &refHeap[queue.Item[P]]{less: func(a, b queue.Item[P]) bool {
		return a.T < b.T || (a.T == b.T && a.Tie < b.Tie)
	}}
	const ops = 4000
	pushed := 0
	for i := 0; i < ops; i++ {
		if ref.Len() == 0 || rng.Float64() < 0.6 {
			it := gen(pushed)
			pushed++
			h.Push(it)
			heap.Push(ref, it)
		} else if got, want := h.Pop(), heap.Pop(ref).(queue.Item[P]); got != want {
			t.Fatalf("op %d: popped %+v, reference popped %+v", i, got, want)
		}
		if len(h) != ref.Len() {
			t.Fatalf("op %d: size %d, reference %d", i, len(h), ref.Len())
		}
	}
	for ref.Len() > 0 {
		if got, want := h.Pop(), heap.Pop(ref).(queue.Item[P]); got != want {
			t.Fatalf("drain: popped %+v, reference popped %+v", got, want)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap retains %d items after drain", len(h))
	}
}

// TestHeapsMatchContainerHeap holds every queue.Heap instantiation to
// container/heap: randomized event (BenchmarkEventHeap's per-event heaps)
// and job (fair-share servers, FIFO servers' busy cores) streams pop
// exactly the items container/heap pops, so no queue.Heap can change a
// simulation output. The event case also holds the whole event
// queue, owner keys and delay lines merged, to one reference heap of
// every event, and the rings case holds periodic captures in their
// classes' rings, merged with owners' events and a line, to one as well.
// The queue.Index instantiations, the owner index, the line heads and
// the link index, are held to a scan by TestIndexMatchesScan (package
// queue) and TestLinkIndexMatchesScan.
func TestHeapsMatchContainerHeap(t *testing.T) {
	// Times are drawn from a small discrete set so ties are frequent and
	// the tie-break keys do real work.
	times := []float64{0, 0.25, 0.25, 1, 1, 1, 2.5, 7}

	t.Run("eventHeap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(101))
		drive(t, rng, func(i int) queue.Item[evRef] {
			// seq is unique: the queue's scheduling counter.
			return queue.Item[evRef](newEvent(times[rng.Intn(len(times))], int64(i),
				rng.Intn(evDynamics+1), int32(rng.Intn(50)), int32(rng.Intn(41))))
		})

		// The hold model is the event loop's steady state: the earliest
		// owner's event pops and the owner is re-keyed a random gap later,
		// with a large resident population of owners. Gaps are exponential
		// but quantized to a quarter second, so popped times stay on that
		// grid and re-keys keep tying resident keys; the seq tie-break does
		// real work at every depth. About half the owner pops also file a
		// fixed-delay stage on one of three lines, whose delays sit on the
		// same grid and include 0, so line events tie owners' and one
		// another, and about half the stage pops file the next stage. The
		// reference heap receives every event, keyed or filed. The drain
		// lowers the horizon, past which arm retires each owner as it pops.
		gap := func() float64 { return math.Round(4*rng.ExpFloat64()) / 4 }
		const resident, holds = 12_000, 60_000
		h := eventHeap{owners: queue.NewIndex(resident), refs: make([]evRef, resident), horizon: math.Inf(1)}
		var lines [3]int32
		for i, d := range []float64{0, 0.25, 1} {
			lines[i] = h.line(d)
		}
		ref := &refHeap[event]{less: eventLess}
		// An owner's event is any kind but a stage or a periodic capture,
		// which reads its class's ring; its id names the owner.
		kinds := []int{evArrive, evControl, evGlobal, evFLReady, evDynamics}
		arm := func(o int32, t float64) {
			kind, aux := kinds[rng.Intn(len(kinds))], int32(rng.Intn(41))
			if t < h.horizon {
				heap.Push(ref, newEvent(t, h.seq, kind, o, aux))
			}
			h.arm(o, t, kind, o, aux)
		}
		filed := 0
		file := func(now float64) {
			l := lines[rng.Intn(len(lines))]
			kind, id, aux := evReady+rng.Intn(2), int32(rng.Intn(1<<20)), int32(rng.Intn(41))
			heap.Push(ref, newEvent(now+h.lines[l].delay, h.seq, kind, id, aux))
			h.file(l, now, kind, id, aux)
			filed++
		}
		for o := int32(0); o < resident; o++ {
			arm(o, gap())
		}
		prev := event{T: math.Inf(-1)}
		step := func(what string, i int) {
			got, want := h.pop(), heap.Pop(ref).(event)
			if got != want {
				t.Fatalf("%s %d: popped %+v, reference popped %+v", what, i, got, want)
			}
			if eventLess(got, prev) {
				t.Fatalf("%s %d: %+v popped after %+v", what, i, got, prev)
			}
			prev = got
			if k := got.kind(); k != evReady && k != evLand {
				arm(got.P.id, got.T+gap())
			}
			if rng.Intn(2) == 0 {
				file(got.T)
			}
		}
		for i := 0; i < holds; i++ {
			step("hold", i)
		}
		if filed == 0 || h.len() != ref.Len() {
			t.Fatalf("filed %d: queue holds %d, reference %d", filed, h.len(), ref.Len())
		}
		h.horizon = prev.T + 2
		for i := 0; ref.Len() > 0; i++ {
			step("drain", i)
		}
		if _, ok := h.next(); ok || h.len() != 0 || h.heads.Len() != 0 {
			t.Fatalf("event queue retains %d events and %d line heads after drain", h.len(), h.heads.Len())
		}
	})

	// The rings hold periodic captures behind one key per class. With no
	// rate step each class's clock is the identity, so the queue must pop
	// every capture, joiner and departure included, where one reference
	// heap of every capture puts it, interleaved with 2,000 control ticks,
	// each an owner re-armed when it pops, and line events on the same
	// quarter-second grid. Captures at or past the horizon stay in their
	// rings and never pop, and arm retires a tick past it.
	t.Run("rings", func(t *testing.T) {
		rng := rand.New(rand.NewSource(103))
		const horizon, ticks = 400, 2000
		sizes, fps := []int{300, 0, 200, 150}, []float64{2, 0, 4, 1}
		owners := len(sizes) + ticks // each class, then each tick
		h := eventHeap{owners: queue.NewIndex(owners), refs: make([]evRef, owners), horizon: horizon}
		extra := 40 // joiners per class
		for ci := range sizes {
			if sizes[ci] > 0 {
				sizes[ci] += extra
			}
		}
		h.periodic(sizes, fps)
		line := h.line(0.25)
		ref := &refHeap[event]{less: eventLess}
		var cams []int32 // each camera's class
		departed := map[int32]bool{}
		join := func(ci int, now float64) {
			cam := int32(len(cams))
			cams = append(cams, int32(ci))
			u := rng.Float64()
			if at := now + u/fps[ci]; at < horizon {
				heap.Push(ref, newEvent(at, h.seq, evPeriodic, cam, int32(ci)))
			}
			h.join(ci, now, u, cam)
		}
		for ci, n := range sizes {
			for k := 0; k < n-extra; k++ {
				join(ci, 0)
			}
		}
		h.start()
		tick := func(o int32, at float64) {
			if at < horizon {
				heap.Push(ref, newEvent(at, h.seq, evControl, o, 0))
			}
			h.arm(o, at, evControl, o, 0)
		}
		gap := func() float64 { return math.Round(4*rng.ExpFloat64()*50) / 4 }
		for o := len(sizes); o < owners; o++ {
			tick(int32(o), gap())
		}
		joined, pops := 0, 0
		for ; ref.Len() > 0; pops++ {
			got, want := h.pop(), heap.Pop(ref).(event)
			if got != want {
				t.Fatalf("popped %+v, reference popped %+v", got, want)
			}
			switch {
			case got.kind() == evControl:
				tick(got.P.id, got.T+gap())
			case got.kind() == evPeriodic && departed[got.P.id]:
				h.skip(int(got.P.aux))
			case got.kind() == evPeriodic:
				ci := int(got.P.aux)
				if at := got.T + 1/fps[ci]; at < horizon {
					heap.Push(ref, newEvent(at, h.seq, evPeriodic, got.P.id, got.P.aux))
				}
				h.rearm(ci)
				if rng.Intn(50) == 0 {
					departed[got.P.id] = true
				}
				if joined < 3*extra && rng.Intn(100) == 0 {
					join(ci, got.T)
					joined++
				}
				if rng.Intn(4) == 0 {
					heap.Push(ref, newEvent(got.T+0.25, h.seq, evLand, got.P.id, 0))
					h.file(line, got.T, evLand, got.P.id, 0)
				}
			}
		}
		if _, ok := h.next(); ok || joined == 0 || len(departed) == 0 {
			t.Fatalf("queue not drained (%v), or no joiner (%d) or departure (%d)", ok, joined, len(departed))
		}
		t.Logf("%d pops, %d joiners, %d departures", pops, joined, len(departed))
	})

	t.Run("job", func(t *testing.T) {
		rng := rand.New(rand.NewSource(102))
		drive(t, rng, func(i int) queue.Item[job] {
			// Tie is unique: a link's or pool's admission counter.
			return queue.Item[job]{T: times[rng.Intn(len(times))], Tie: int64(i),
				P: job{id: i, size: float64(rng.Intn(1000))}}
		})
	})
}
