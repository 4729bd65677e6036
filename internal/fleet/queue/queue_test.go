package queue

import (
	"math/rand"
	"testing"
)

// TestRingBoundedOverLongRun is the regression test for a FIFO queue that
// pops by reslicing (q = q[1:]): that pins every served item in the
// backing array for the life of the run. With a backlog that never
// exceeds 8, the ring must stay at 16 slots or fewer however many items
// pass through it.
func TestRingBoundedOverLongRun(t *testing.T) {
	var r Ring[int]
	const items = 200_000
	want := 0
	pop := func() {
		if got := r.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	for i := 0; i < items; i++ {
		r.Push(i)
		if r.Len() >= 8 {
			pop()
		}
	}
	for r.Len() > 0 {
		pop()
	}
	if want != items {
		t.Fatalf("popped %d items, pushed %d", want, items)
	}
	if len(r.buf) > 16 {
		t.Fatalf("ring grew to %d slots for a backlog that never exceeded 8", len(r.buf))
	}
}

// TestRingFIFOAcrossWrapAndGrowth checks FIFO order while the live items
// wrap around the end of the buffer and while the buffer doubles in that
// state. Each round pushes one more item than it pops, so the head keeps
// moving and the backlog keeps outgrowing the buffer.
func TestRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	var r Ring[int]
	next, want, wrappedGrowths := 0, 0, 0
	for round := 1; round <= 64; round++ {
		for k := 0; k <= round; k++ {
			if r.n == len(r.buf) && r.head != 0 {
				wrappedGrowths++
			}
			r.Push(next)
			next++
		}
		for k := 0; k < round; k++ {
			if front := r.Front(); front != want {
				t.Fatalf("round %d: front %d, want %d", round, front, want)
			}
			if got := r.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
		if r.Len() != next-want {
			t.Fatalf("round %d: length %d, want %d", round, r.Len(), next-want)
		}
	}
	for ; r.Len() > 0; want++ {
		if got := r.Pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
	if wrappedGrowths == 0 {
		t.Fatal("the buffer never doubled with its items wrapped around the end")
	}
}

// TestIndexMatchesScan drives an Index and a brute-force table of every
// source's key in lockstep, with 16 sources. Each call is one of: Set as
// an insert, a raise, a lower or an unchanged key; Remove of the top, of
// a middle slot, of the last slot or of a source holding no key. Times
// come from a small grid with repeats, and a source's tie-break is its
// number plus a multiple of 16, so a re-key can keep its time and change
// only its tie-break while keys stay unique across sources. After every
// call Len and Min must equal a scan of the table, and every source's pos
// must point at its own item, carrying its key.
func TestIndexMatchesScan(t *testing.T) {
	const sources = 16
	times := []float64{0, 0.25, 0.25, 1, 1, 1, 2.5, 7}
	type key struct {
		t   float64
		tie int64
	}
	less := func(a, b key) bool { return a.t < b.t || a.t == b.t && a.tie < b.tie }
	rng := rand.New(rand.NewSource(104))
	var x Index
	var ref [sources]key
	var live [sources]bool
	for src := int32(0); src < sources; src++ {
		if got := x.Add(); got != src {
			t.Fatalf("Add returned source %d, want %d", got, src)
		}
	}
	draw := func(src int32) key {
		return key{times[rng.Intn(len(times))], int64(rng.Intn(4)*sources) + int64(src)}
	}
	// redraw returns a key for src that orders after its current one
	// (raise) or ahead of it (lower), or ok=false when none turned up.
	redraw := func(src int32, raise bool) (key, bool) {
		for try := 0; try < 64; try++ {
			if k := draw(src); less(ref[src], k) == raise && k != ref[src] {
				return k, true
			}
		}
		return key{}, false
	}
	set := func(src int32, k key) {
		x.Set(src, k.t, k.tie)
		ref[src], live[src] = k, true
	}
	remove := func(src int32) {
		x.Remove(src)
		live[src] = false
	}
	pick := func(want bool) (int32, bool) {
		var srcs []int32
		for src, l := range live {
			if l == want {
				srcs = append(srcs, int32(src))
			}
		}
		if len(srcs) == 0 {
			return 0, false
		}
		return srcs[rng.Intn(len(srcs))], true
	}
	// Inserts outweigh removals, so the index stays deep enough for a
	// middle slot's replacement to come from another subtree.
	const (
		opInsert = iota
		opRaise
		opLower
		opUnchanged
		opRemoveTop
		opRemoveMiddle
		opRemoveLast
		opRemoveAbsent
	)
	weights := []int{opInsert, opInsert, opInsert, opInsert, opRaise, opRaise, opLower, opLower,
		opUnchanged, opRemoveTop, opRemoveMiddle, opRemoveLast, opRemoveAbsent}
	var done [opRemoveAbsent + 1]int
	for step := 0; step < 20_000; step++ {
		op := weights[rng.Intn(len(weights))]
		n := len(x.h)
		switch op {
		case opInsert:
			src, ok := pick(false)
			if !ok {
				continue
			}
			set(src, draw(src))
		case opRaise, opLower:
			src, ok := pick(true)
			if !ok {
				continue
			}
			k, ok := redraw(src, op == opRaise)
			if !ok {
				continue
			}
			set(src, k)
		case opUnchanged:
			src, ok := pick(true)
			if !ok {
				continue
			}
			set(src, ref[src])
		case opRemoveTop, opRemoveMiddle, opRemoveLast:
			// With three keys or more the three slots are distinct.
			if n < 3 {
				continue
			}
			slot := 0
			switch op {
			case opRemoveMiddle:
				slot = 1 + rng.Intn(n-2)
			case opRemoveLast:
				slot = n - 1
			}
			remove(x.h[slot].P)
		case opRemoveAbsent:
			src, ok := pick(false)
			if !ok {
				continue
			}
			remove(src)
		}
		done[op]++

		size, best := 0, int32(-1)
		for src := int32(0); src < sources; src++ {
			if !live[src] {
				continue
			}
			size++
			if best < 0 || less(ref[src], ref[best]) {
				best = src
			}
		}
		if x.Len() != size {
			t.Fatalf("step %d (op %d): Len %d, scan %d", step, op, x.Len(), size)
		}
		if size > 0 {
			if m := x.Min(); m.P != best || m.T != ref[best].t || m.Tie != ref[best].tie {
				t.Fatalf("step %d (op %d): Min %+v, scan source %d key %+v", step, op, m, best, ref[best])
			}
		}
		for src, p := range x.pos {
			switch {
			case !live[src] && p != -1:
				t.Fatalf("step %d (op %d): source %d holds no key but pos %d", step, op, src, p)
			case live[src] && (p < 0 || int(p) >= len(x.h)):
				t.Fatalf("step %d (op %d): source %d holds a key but pos %d", step, op, src, p)
			case live[src] && (x.h[p].P != int32(src) || x.h[p].T != ref[src].t || x.h[p].Tie != ref[src].tie):
				t.Fatalf("step %d (op %d): source %d's pos %d holds %+v, want key %+v", step, op, src, p, x.h[p], ref[src])
			}
		}
	}
	for op, k := range done {
		if k == 0 {
			t.Errorf("op %d never ran", op)
		}
	}
}

// TestNewIndexIsSizedOnce pins NewIndex: its n sources start keyless, so
// Remove is a no-op and Len is 0; keying every one of them never
// regrows the heap it was built with; and Add numbers the next source n.
func TestNewIndexIsSizedOnce(t *testing.T) {
	const n = 5
	x := NewIndex(n)
	for src := int32(0); src < n; src++ {
		x.Remove(src)
	}
	if x.Len() != 0 {
		t.Fatalf("a new index holds %d keys", x.Len())
	}
	h := &x.h[:1][0]
	for src := int32(n - 1); src >= 0; src-- {
		x.Set(src, float64(src), int64(src))
	}
	if x.Len() != n || x.Min().P != 0 || &x.h[0] != h {
		t.Fatalf("%d keys, minimum at source %d, heap regrown %v", x.Len(), x.Min().P, &x.h[0] != h)
	}
	if got := x.Add(); got != n {
		t.Fatalf("Add after NewIndex(%d) returned source %d", n, got)
	}
}
