package fleet

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
// matching an O(links) scan bit for bit (TestLinkIndexMatchesScan).
type linkIndex struct {
	links []Link
	ver   []uint64
	h     liHeap
}

type liEntry struct {
	t   float64
	li  int
	ver uint64
}

// liHeap is a specialized binary min-heap ordered by (t, li). Stale
// entries for the same link can tie exactly with its live one, but peek's
// result is invariant to their relative order — only the live entry
// survives — so the (t, li) comparison fully determines what peek returns,
// identically to a container/heap reference (TestHeapsMatchContainerHeap),
// without boxing an entry per invalidation.
type liHeap []liEntry

func (h liHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].li < h[j].li
}

func (h *liHeap) push(e liEntry) {
	s := append(*h, e)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

func (h *liHeap) pop() liEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s.less(j2, j) {
			j = j2
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	*h = s[:n]
	return e
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
		x.h.push(liEntry{t: t, li: li, ver: x.ver[li]})
	}
}

// peek returns the link with the earliest completion and that time, or
// ok=false when nothing is in flight anywhere.
func (x *linkIndex) peek() (li int, t float64, ok bool) {
	for len(x.h) > 0 {
		e := x.h[0]
		if e.ver == x.ver[e.li] {
			return e.li, e.t, true
		}
		x.h.pop()
	}
	return -1, 0, false
}
