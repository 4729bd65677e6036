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

// len returns the number of pending events, on the heap and every line.
func (h *eventHeap) len() int {
	n := len(h.heap)
	for i := range h.lines {
		n += h.lines[i].q.Len()
	}
	return n
}

// TestRecordLayout pins the per-camera and per-transfer records: a
// 24-byte camera keeps a 100k-camera fleet's capture reads cache-resident,
// and a frame's transfer carries its class in 40 bytes.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(camera{}); got != 24 {
		t.Errorf("camera is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(transfer{}); got != 40 {
		t.Errorf("transfer is %d bytes, want 40", got)
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

// TestHeapCountsClassesNotCameras pins what newEngine puts on a periodic
// fleet's event heap: nothing per camera. BenchmarkPeriodicFleet's 30k
// periodic cameras in 32 classes leave the heap holding one event, the
// schedule cursor's first entry, in room for a control tick per class,
// one global epoch and the cursor, while every class is keyed once and
// the rings hold the cameras.
func TestHeapCountsClassesNotCameras(t *testing.T) {
	sc := periodicFleetScenario()
	e, err := newEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	h := &e.events
	if len(h.heap) != 1 || cap(h.heap) != 1+len(sc.Classes)+1 {
		t.Errorf("heap holds %d events in room for %d, want 1 in room for %d", len(h.heap), cap(h.heap), 1+len(sc.Classes)+1)
	}
	held := 0
	for _, r := range h.rings {
		held += r.n
	}
	if h.streams.Len() != len(sc.Classes) || held != sc.Cameras() {
		t.Errorf("%d class keys over rings of %d captures, want %d keys and %d captures", h.streams.Len(), held, len(sc.Classes), sc.Cameras())
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

// TestHeapsMatchContainerHeap holds every queue.Heap instantiation the
// simulator uses to container/heap: randomized event and job (fair-share
// servers, FIFO servers' busy cores) streams pop exactly the items
// container/heap pops, so the heap cannot have changed any simulation
// output. The event case also holds the whole event queue, heap and delay
// lines merged, to one reference heap of every event, and the rings case
// holds periodic captures in their classes' rings, merged with both, to
// one as well. The queue.Index
// instantiations, the link index and the line heads, are held to a scan
// by TestIndexMatchesScan (package queue) and TestLinkIndexMatchesScan.
func TestHeapsMatchContainerHeap(t *testing.T) {
	// Times are drawn from a small discrete set so ties are frequent and
	// the tie-break keys do real work.
	times := []float64{0, 0.25, 0.25, 1, 1, 1, 2.5, 7}

	t.Run("eventHeap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(101))
		drive(t, rng, func(i int) queue.Item[evRef] {
			// seq is unique: the loop's scheduling counter.
			return queue.Item[evRef](newEvent(times[rng.Intn(len(times))], int64(i),
				rng.Intn(evDynamics+1), int32(rng.Intn(50)), int32(rng.Intn(41))))
		})

		// The hold model is the event loop's steady state: pop the
		// minimum, push it back a random gap later, with a large resident
		// population. Gaps are exponential but quantized to a quarter
		// second, so popped times stay on that grid and pushes keep tying
		// resident events; the seq tie-break does real work at every depth.
		// About half the pops also file a fixed-delay stage on one of three
		// lines, whose delays sit on the same grid and include 0, so line
		// events tie heap events and one another too. The reference heap
		// receives every event, filed or pushed.
		gap := func() float64 { return math.Round(4*rng.ExpFloat64()) / 4 }
		const resident, holds = 12_000, 60_000
		var h eventHeap
		var lines [3]int32
		for i, d := range []float64{0, 0.25, 1} {
			lines[i] = h.line(d)
		}
		ref := &refHeap[event]{less: eventLess}
		var seq int64
		push := func(t float64) {
			ev := newEvent(t, seq, int(seq%(evDynamics+1)), int32(rng.Intn(1<<20)), int32(rng.Intn(41)))
			seq++
			h.push(ev)
			heap.Push(ref, ev)
		}
		file := func(now float64) {
			l := lines[rng.Intn(len(lines))]
			kind, id, aux := int(seq%(evDynamics+1)), int32(rng.Intn(1<<20)), int32(rng.Intn(41))
			h.file(l, now, seq, kind, id, aux)
			heap.Push(ref, newEvent(now+h.lines[l].delay, seq, kind, id, aux))
			seq++
		}
		for i := 0; i < resident; i++ {
			push(gap())
		}
		filed := 0
		for i := 0; i < holds; i++ {
			got, want := h.pop(), heap.Pop(ref).(event)
			if got != want {
				t.Fatalf("hold %d: popped %+v, reference popped %+v", i, got, want)
			}
			push(got.T + gap())
			if rng.Intn(2) == 0 {
				file(got.T)
				filed++
			}
		}
		if filed == 0 || h.len() != ref.Len() {
			t.Fatalf("filed %d: queue holds %d, reference %d", filed, h.len(), ref.Len())
		}
		for prev := (event{T: math.Inf(-1)}); ref.Len() > 0; {
			got, want := h.pop(), heap.Pop(ref).(event)
			if got != want {
				t.Fatalf("drain: popped %+v, reference popped %+v", got, want)
			}
			if eventLess(got, prev) {
				t.Fatalf("drain: %+v popped after %+v", got, prev)
			}
			prev = got
		}
		if _, ok := h.next(); ok || h.len() != 0 || h.heads.Len() != 0 {
			t.Fatalf("event queue retains %d events and %d line heads after drain", h.len(), h.heads.Len())
		}
	})

	// The rings hold periodic captures behind one key per class. With no
	// rate step each class's clock is the identity, so the queue must pop
	// every capture, joiner and departure included, where one reference
	// heap of every capture puts it, interleaved with heap events and line
	// events on the same quarter-second grid. Captures at or past the
	// horizon stay in their rings and never pop, as arm never pushed them.
	t.Run("rings", func(t *testing.T) {
		rng := rand.New(rand.NewSource(103))
		const horizon = 400
		sizes, fps := []int{300, 0, 200, 150}, []float64{2, 0, 4, 1}
		h := eventHeap{streams: queue.NewIndex(len(sizes)), horizon: horizon}
		extra := 40 // joiners per class
		for ci := range sizes {
			if sizes[ci] > 0 {
				sizes[ci] += extra
			}
		}
		h.periodic(sizes, fps)
		line := h.line(0.25)
		ref := &refHeap[event]{less: eventLess}
		var seq int64
		var cams []int32 // each camera's class
		departed := map[int32]bool{}
		join := func(ci int, now float64) {
			cam := int32(len(cams))
			cams = append(cams, int32(ci))
			u := rng.Float64()
			h.join(ci, now, u, seq, cam)
			if at := now + u/fps[ci]; at < horizon {
				heap.Push(ref, newEvent(at, seq, evPeriodic, cam, int32(ci)))
			}
			seq++
		}
		for ci, n := range sizes {
			for k := 0; k < n-extra; k++ {
				join(ci, 0)
			}
		}
		h.start()
		push := func(at float64) {
			ev := newEvent(at, seq, evControl, int32(rng.Intn(1<<20)), 0)
			seq++
			h.push(ev)
			heap.Push(ref, ev)
		}
		for i := 0; i < 2000; i++ {
			push(math.Round(4*rng.ExpFloat64()*50) / 4)
		}
		joined, pops := 0, 0
		for ; ref.Len() > 0; pops++ {
			got, want := h.pop(), heap.Pop(ref).(event)
			if got != want {
				t.Fatalf("popped %+v, reference popped %+v", got, want)
			}
			switch {
			case got.kind() == evPeriodic && departed[got.P.id]:
				h.skip(int(got.P.aux))
			case got.kind() == evPeriodic:
				ci := int(got.P.aux)
				h.rearm(ci, seq)
				if at := got.T + 1/fps[ci]; at < horizon {
					heap.Push(ref, newEvent(at, seq, evPeriodic, got.P.id, got.P.aux))
				}
				seq++
				if rng.Intn(50) == 0 {
					departed[got.P.id] = true
				}
				if joined < 3*extra && rng.Intn(100) == 0 {
					join(ci, got.T)
					joined++
				}
				if rng.Intn(4) == 0 {
					h.file(line, got.T, seq, evLand, got.P.id, 0)
					heap.Push(ref, newEvent(got.T+0.25, seq, evLand, got.P.id, 0))
					seq++
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
