package fleet

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// refHeap adapts a slice + comparator to container/heap.Interface — the
// reference implementation the specialized heaps must match pop for pop.
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

// eventLess is the reference (t, seq) order the event heap must follow.
func eventLess(a, b event) bool { return a.t < b.t || (a.t == b.t && a.seq < b.seq) }

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
	for kind := evCapture; kind <= evDynamics; kind++ {
		ev := newEvent(2.5, seq+int64(kind), kind, math.MaxInt32, math.MaxInt32)
		if ev.kind() != kind || ev.seq>>kindBits != seq+int64(kind) ||
			ev.id != math.MaxInt32 || ev.aux != math.MaxInt32 || ev.t != 2.5 {
			t.Errorf("kind %d: round trip gave %+v (kind %d, seq %d)", kind, ev, ev.kind(), ev.seq>>kindBits)
		}
		// A later-scheduled event orders after an earlier one whatever the
		// two kinds are.
		earlier := newEvent(2.5, seq+int64(kind)-1, evDynamics, 0, 0)
		if !eventLess(earlier, ev) || eventLess(ev, earlier) {
			t.Errorf("kind %d: seq order lost against an earlier evDynamics", kind)
		}
	}
}

// drive feeds an identical randomized push/pop interleaving (~60% pushes,
// then a full drain) through the specialized heap and the container/heap
// reference, comparing every popped element. The comparators impose a
// total order (unique tie-break keys), so the pop sequences must be
// identical element for element — the property that makes the heap swap
// output-invariant.
func drive[T comparable](t *testing.T, rng *rand.Rand, gen func(i int) T,
	less func(a, b T) bool, push func(T), pop func() T, size func() int) {
	t.Helper()
	ref := &refHeap[T]{less: less}
	const ops = 4000
	pushed := 0
	for i := 0; i < ops; i++ {
		if ref.Len() == 0 || rng.Float64() < 0.6 {
			it := gen(pushed)
			pushed++
			push(it)
			heap.Push(ref, it)
		} else {
			got, want := pop(), heap.Pop(ref).(T)
			if got != want {
				t.Fatalf("op %d: popped %+v, reference popped %+v", i, got, want)
			}
		}
		if size() != ref.Len() {
			t.Fatalf("op %d: size %d, reference %d", i, size(), ref.Len())
		}
	}
	for ref.Len() > 0 {
		got, want := pop(), heap.Pop(ref).(T)
		if got != want {
			t.Fatalf("drain: popped %+v, reference popped %+v", got, want)
		}
	}
	if size() != 0 {
		t.Fatalf("specialized heap retains %d items after drain", size())
	}
}

// TestHeapsMatchContainerHeap is the differential property test behind
// the boxing-free heap swap: randomized event, fair-share and link-index
// streams pop in exactly the order container/heap produced, so replacing
// the boxed heaps cannot have changed any simulation output.
func TestHeapsMatchContainerHeap(t *testing.T) {
	// Times are drawn from a small discrete set so ties are frequent and
	// the tie-break keys do real work.
	times := []float64{0, 0.25, 0.25, 1, 1, 1, 2.5, 7}

	t.Run("eventHeap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(101))
		var h eventHeap
		drive(t, rng,
			func(i int) event {
				// seq is unique: the loop's scheduling counter.
				return newEvent(times[rng.Intn(len(times))], int64(i),
					rng.Intn(evDynamics+1), int32(rng.Intn(50)), int32(rng.Intn(41)))
			},
			eventLess,
			func(ev event) { h.push(ev) },
			func() event { return h.pop() },
			func() int { return len(h) })

		// The hold model is the event loop's steady state: pop the
		// minimum, push it back a random gap later, with a large resident
		// population. Gaps are exponential but quantized to a quarter
		// second, so popped times stay on that grid and pushes keep tying
		// resident events; the seq tie-break does real work at every depth.
		gap := func() float64 { return math.Round(4*rng.ExpFloat64()) / 4 }
		const resident, holds = 12_000, 60_000
		ref := &refHeap[event]{less: eventLess}
		var seq int64
		push := func(t float64) {
			ev := newEvent(t, seq, int(seq%(evDynamics+1)), int32(rng.Intn(1<<20)), int32(rng.Intn(41)))
			seq++
			h.push(ev)
			heap.Push(ref, ev)
		}
		for i := 0; i < resident; i++ {
			push(gap())
		}
		for i := 0; i < holds; i++ {
			got, want := h.pop(), heap.Pop(ref).(event)
			if got != want {
				t.Fatalf("hold %d: popped %+v, reference popped %+v", i, got, want)
			}
			push(got.t + gap())
		}
		if len(h) != resident || ref.Len() != resident {
			t.Fatalf("resident %d, reference %d, want %d", len(h), ref.Len(), resident)
		}
		for prev := (event{t: math.Inf(-1)}); ref.Len() > 0; {
			got, want := h.pop(), heap.Pop(ref).(event)
			if got != want {
				t.Fatalf("drain: popped %+v, reference popped %+v", got, want)
			}
			if eventLess(got, prev) {
				t.Fatalf("drain: %+v popped after %+v", got, prev)
			}
			prev = got
		}
		if len(h) != 0 {
			t.Fatalf("specialized heap retains %d events after drain", len(h))
		}
	})

	t.Run("psHeap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(102))
		var h psHeap
		drive(t, rng,
			func(i int) psItem {
				return psItem{
					id:      i,
					bytes:   float64(rng.Intn(1000)),
					vfinish: times[rng.Intn(len(times))],
					seq:     int64(i), // unique: the uplink's admission counter
				}
			},
			func(a, b psItem) bool {
				return a.vfinish < b.vfinish || (a.vfinish == b.vfinish && a.seq < b.seq)
			},
			func(it psItem) { h.push(it) },
			func() psItem { return h.pop() },
			func() int { return len(h) })
	})

	t.Run("liHeap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(103))
		var h liHeap
		drive(t, rng,
			func(i int) liEntry {
				// li is the unique tie-break here; in production stale
				// entries can tie a live one exactly, but peek's result is
				// invariant to their order, so unique keys lose no coverage.
				return liEntry{t: times[rng.Intn(len(times))], li: i, ver: uint64(rng.Intn(4))}
			},
			func(a, b liEntry) bool { return a.t < b.t || (a.t == b.t && a.li < b.li) },
			func(e liEntry) { h.push(e) },
			func() liEntry { return h.pop() },
			func() int { return len(h) })
	})
}
