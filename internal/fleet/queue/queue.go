// Package queue holds the two queue shapes the fleet simulator runs on:
// Heap, a binary min-heap keyed by (time, tie-break), and Ring, a FIFO
// ring buffer. The event loop's heap and its delay lines' heads, the
// fair-share servers, the FIFO servers' busy cores and the
// link-completion index are Heaps over their own payloads; the delay
// lines and the FIFO servers' waiting queues are Rings.
//
// It is a package of its own so that a CPU profile attributed by source
// file (fleetbench's layer map) charges a queue's samples to the code
// that called it — the event loop, a link, a pool or the link index —
// rather than to one shared file in package fleet.
package queue

// Item is one heap entry: the key (T, Tie) and a payload P that the heap
// carries but never reads.
type Item[P any] struct {
	T   float64
	Tie int64
	P   P
}

// Heap is a binary min-heap of Items ordered by T, then Tie. Push and Pop
// make exactly the comparisons container/heap's up and down make, so
// even items with equal keys pop in container/heap's order; with unique
// keys the order is total and any correct min-heap agrees.
//
// Both sift through a hole: the moving item is held aside, parents (Push)
// or the smaller child (Pop) shift into the gap, and the item is written
// once where it stops, instead of being swapped at every level.
type Heap[P any] []Item[P]

// before reports whether key (t, tie) orders ahead of key (u, utie). It is
// a plain function of the keys rather than a method of Item[P], so the
// instantiated sifts call it without consulting a generic dictionary.
// Keep the times compared first and in this form: it fixes where a NaN
// time sorts.
func before(t float64, tie int64, u float64, utie int64) bool {
	if t != u {
		return t < u
	}
	return tie < utie
}

// Push adds it to the heap.
func (h *Heap[P]) Push(it Item[P]) {
	s := append(*h, it)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !before(it.T, it.Tie, s[i].T, s[i].Tie) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = it
	*h = s
}

// Pop removes and returns the minimum item. The heap must not be empty.
func (h *Heap[P]) Pop() Item[P] {
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
		if j2 := j + 1; j2 < n && before(s[j2].T, s[j2].Tie, s[j].T, s[j].Tie) {
			j = j2
		}
		if !before(s[j].T, s[j].Tie, last.T, last.Tie) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = last
	return top
}

// Ring is a FIFO queue in a circular buffer. The buffer grows only when
// it is full, so it stays at the peak backlog however many items pass
// through, and its length is always a power of two (4, then doubled), so
// wrap-around is a mask rather than an integer modulo.
type Ring[T any] struct {
	buf     []T // n live items starting at head, wrapping at the end
	head, n int
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return r.n }

// Push appends x at the back.
func (r *Ring[T]) Push(x T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = x
	r.n++
}

// Front returns the item at the front without removing it. The ring must
// not be empty.
func (r *Ring[T]) Front() T { return r.buf[r.head] }

// Pop removes and returns the front item. The ring must not be empty.
func (r *Ring[T]) Pop() T {
	x := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return x
}
