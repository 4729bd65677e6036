package fleet

import "camsim/internal/fleet/queue"

// linkIndex finds the earliest next completion across a fixed set of links
// in O(log links) per event, replacing the O(links) scan that dominated
// deep-topology runs. The set is direction-agnostic: uplinks occupy the
// low indices in tier order and declared downlinks follow, so ties on
// time resolve uplinks (leaves before the root) ahead of downlinks,
// deterministically. It is a lazily invalidated min-heap: every Start or
// Finish on link li bumps li's version and pushes a fresh (finish time,
// li, version) entry; peek discards entries whose version is stale. Each
// link therefore has at most one live entry — the one reflecting its
// current NextFinish — and ties on time resolve to the lowest link index,
// matching an O(links) scan bit for bit (TestLinkIndexMatchesScan). Stale
// entries can tie a link's live entry exactly, but peek's result does not
// depend on their order: only the live entry survives.
type linkIndex struct {
	links []Link
	ver   []uint64
	h     queue.Heap[uint64] // (finish time, link index), carrying the link's version
}

func newLinkIndex(links []Link) *linkIndex {
	return &linkIndex{links: links, ver: make([]uint64, len(links))}
}

// invalidate must be called after any Start or Finish on links[li]: both
// can move the link's earliest completion (fair share rescales every
// in-flight transfer on admission).
func (x *linkIndex) invalidate(li int) {
	x.ver[li]++
	if t, ok := x.links[li].NextFinish(); ok {
		x.h.Push(queue.Item[uint64]{T: t, Tie: int64(li), P: x.ver[li]})
	}
}

// peek returns the link with the earliest completion and that time, or
// ok=false when nothing is in flight anywhere.
func (x *linkIndex) peek() (li int, t float64, ok bool) {
	for len(x.h) > 0 {
		e := x.h[0]
		if e.P == x.ver[e.Tie] {
			return int(e.Tie), e.T, true
		}
		x.h.Pop()
	}
	return -1, 0, false
}
