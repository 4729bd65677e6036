// Package queue holds the queue shapes the fleet simulator runs on: Heap,
// a binary min-heap keyed by (time, tie-break); Index, the same heap over
// numbered sources that each hold at most one key, re-keyed in place; and
// Ring, a FIFO ring buffer. The fair-share servers and the FIFO servers'
// busy cores are Heaps over their jobs; the link-completion index (one
// source per link), the delay lines' heads (one source per line) and the
// event queue's owners (one source per class, controller, federated
// participant, schedule cursor or churn entry, each keyed by its one
// pending event) are Indexes; the delay lines and the FIFO servers'
// waiting queues are Rings.
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

// Index is a binary min-heap over sources numbered from 0 in the order
// Add returns them, each holding at most one key (T, Tie). Where a Heap
// client that re-keys must push a fresh item and skip the old one later,
// Index moves a source's one item in place: pos records where each
// source sits, so Set sifts the item up or down from there and Remove
// takes it out from the middle. It orders and sifts like Heap: before,
// through a hole.
type Index struct {
	h   []Item[int32] // P is the item's source
	pos []int32       // pos[src] is src's slot in h, or -1 when it holds no key
}

// NewIndex returns an index of n sources, numbered 0 to n-1 and holding
// no key, sized so that no Set regrows it.
func NewIndex(n int) Index {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return Index{h: make([]Item[int32], 0, n), pos: pos}
}

// Add adds a source holding no key and returns its number.
func (x *Index) Add() int32 {
	x.pos = append(x.pos, -1)
	return int32(len(x.pos) - 1)
}

// Len returns the number of sources holding a key.
func (x *Index) Len() int { return len(x.h) }

// Min returns the minimum key, with its source as P. The index must not
// be empty.
func (x *Index) Min() Item[int32] { return x.h[0] }

// Set keys src at (t, tie): it inserts the key when src holds none, and
// otherwise re-keys src in place, doing nothing when the key is
// unchanged.
func (x *Index) Set(src int32, t float64, tie int64) {
	it := Item[int32]{T: t, Tie: tie, P: src}
	switch i := int(x.pos[src]); {
	case i < 0:
		x.h = append(x.h, it)
		x.up(len(x.h)-1, it)
	case t != x.h[i].T || tie != x.h[i].Tie:
		x.fix(i, it)
	}
}

// Remove drops src's key; a source holding none is left as it is.
func (x *Index) Remove(src int32) {
	i := int(x.pos[src])
	if i < 0 {
		return
	}
	x.pos[src] = -1
	n := len(x.h) - 1
	last := x.h[n]
	x.h = x.h[:n]
	if i < n {
		// The last item fills the hole. It comes from another subtree, so
		// it can order ahead of the hole's parent as well as behind a
		// child.
		x.fix(i, last)
	}
}

// fix writes it into the hole at slot i, sifting it up when it orders
// ahead of the hole's parent and down otherwise.
func (x *Index) fix(i int, it Item[int32]) {
	if p := (i - 1) / 2; i > 0 && before(it.T, it.Tie, x.h[p].T, x.h[p].Tie) {
		x.up(i, it)
	} else {
		x.down(i, it)
	}
}

// up sifts it toward the root from the hole at slot j, recording every
// item's new slot.
func (x *Index) up(j int, it Item[int32]) {
	s := x.h
	for j > 0 {
		i := (j - 1) / 2
		if !before(it.T, it.Tie, s[i].T, s[i].Tie) {
			break
		}
		s[j] = s[i]
		x.pos[s[j].P] = int32(j)
		j = i
	}
	s[j] = it
	x.pos[it.P] = int32(j)
}

// down sifts it toward the leaves from the hole at slot i, recording
// every item's new slot.
func (x *Index) down(i int, it Item[int32]) {
	s := x.h
	n := len(s)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && before(s[j2].T, s[j2].Tie, s[j].T, s[j].Tie) {
			j = j2
		}
		if !before(s[j].T, s[j].Tie, it.T, it.Tie) {
			break
		}
		s[i] = s[j]
		x.pos[s[i].P] = int32(i)
		i = j
	}
	s[i] = it
	x.pos[it.P] = int32(i)
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
