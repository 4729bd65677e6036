package fleet

import "camsim/internal/fleet/queue"

// linkIndex finds the earliest next completion across a fixed set of links
// in O(1) per peek and O(log busy links) per change, replacing the
// O(links) scan that dominated deep-topology runs. The set is
// direction-agnostic: uplinks occupy the low indices in tier order and
// declared downlinks follow, so ties on time resolve uplinks (leaves
// before the root) ahead of downlinks, deterministically. It is a
// queue.Index with one source per link: a link holds one key, (finish
// time, link index), exactly while it has a transfer in flight, and every
// Start or Finish re-keys that key in place. Keys are unique, so ties on
// time resolve to the lowest link index, matching an O(links) scan bit for
// bit (TestLinkIndexMatchesScan).
type linkIndex struct {
	links []Link
	busy  queue.Index
}

func newLinkIndex(links []Link) *linkIndex {
	x := &linkIndex{links: links}
	for range links {
		x.busy.Add()
	}
	return x
}

// invalidate must be called after any Start or Finish on links[li]: both
// can move the link's earliest completion (fair share rescales every
// in-flight transfer on admission).
func (x *linkIndex) invalidate(li int) {
	if t, ok := x.links[li].NextFinish(); ok {
		x.busy.Set(int32(li), t, int64(li))
	} else {
		x.busy.Remove(int32(li))
	}
}

// peek returns the link with the earliest completion and that time, or
// ok=false when nothing is in flight anywhere.
func (x *linkIndex) peek() (li int, t float64, ok bool) {
	if x.busy.Len() == 0 {
		return -1, 0, false
	}
	m := x.busy.Min()
	return int(m.P), m.T, true
}
