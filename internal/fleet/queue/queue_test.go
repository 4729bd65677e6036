package queue

import "testing"

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
