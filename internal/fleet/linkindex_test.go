package fleet

import (
	"math"
	"math/rand"
	"testing"
)

// scanNextFinish is the O(links) lookup linkIndex replaces, kept here as
// its reference: the earliest NextFinish across every link, ties to the
// lowest link index, links parked at +Inf included, and ok=false when
// every link is idle.
func scanNextFinish(links []Link) (li int, t float64, ok bool) {
	li = -1
	for i, l := range links {
		if ft, busy := l.NextFinish(); busy && (li < 0 || ft < t) {
			li, t = i, ft
		}
	}
	return li, t, li >= 0
}

// TestLinkIndexMatchesScan drives random operations on a mixed set of
// fair-share and FIFO uplinks and core pools — admissions, completions,
// outage drains, capacity changes (including a zero-capacity park and
// its restore) and core rescales — invalidating the index after each
// one, as the engine does. After every step peek must agree exactly with
// the reference scan. Sizes and capacities are powers of two and time
// advances in quarter seconds, so completions on different links tie
// often and the lowest-index tie-break is exercised.
func TestLinkIndexMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		var links []Link
		var uplinks, pools []int
		baseCap := map[int]float64{}
		for i := 0; i < 10; i++ {
			var l Link
			switch i % 4 {
			case 0, 1:
				model := ContentionFairShare
				if i%4 == 1 {
					model = ContentionFIFO
				}
				c := float64(int(1024) << rng.Intn(3))
				var err error
				if l, err = NewLink(model, c); err != nil {
					t.Fatal(err)
				}
				uplinks = append(uplinks, i)
				baseCap[i] = c
			case 2:
				l = newComputeServer(&ComputeConfig{Cores: 1 + rng.Intn(4), Discipline: ContentionFairShare})
				pools = append(pools, i)
			case 3:
				l = newComputeServer(&ComputeConfig{Cores: 1 + rng.Intn(4), Discipline: ContentionFIFO})
				pools = append(pools, i)
			}
			links = append(links, l)
		}
		x := newLinkIndex(links)
		now, nextID := 0.0, 0
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(20); {
			case op < 8: // admit
				li := rng.Intn(len(links))
				size := float64(int(256) << rng.Intn(4))
				if li%4 >= 2 {
					size = 0.25 * float64(1+rng.Intn(8)) // core-seconds
				}
				links[li].Start(now, nextID, size)
				nextID++
				x.invalidate(li)
			case op < 14: // complete at the earliest finish, any tied link
				_, ft, ok := scanNextFinish(links)
				if !ok || math.IsInf(ft, 1) {
					break
				}
				var tied []int
				for i, l := range links {
					if lt, busy := l.NextFinish(); busy && lt == ft {
						tied = append(tied, i)
					}
				}
				li := tied[rng.Intn(len(tied))]
				now = ft
				links[li].Finish()
				x.invalidate(li)
			case op < 16: // let time pass, never past a pending finish
				next := now + 0.25
				if _, ft, ok := scanNextFinish(links); ok && ft < next {
					next = ft
				}
				now = next
			case op < 17: // outage drain
				li := rng.Intn(len(links))
				links[li].drain()
				x.invalidate(li)
			case op < 19: // degrade, park at zero, or restore
				li := uplinks[rng.Intn(len(uplinks))]
				factor := [...]float64{0, 0.5, 1, 1, 2}[rng.Intn(5)]
				links[li].setCapacity(now, baseCap[li]*factor)
				x.invalidate(li)
			default: // rescale a core pool
				li := pools[rng.Intn(len(pools))]
				links[li].setCores(now, 1+rng.Intn(4))
				x.invalidate(li)
			}
			wli, wt, wok := scanNextFinish(links)
			gli, gt, gok := x.peek()
			if gli != wli || gt != wt || gok != wok {
				t.Fatalf("seed %d step %d: peek = (%d, %v, %v), scan = (%d, %v, %v)",
					seed, step, gli, gt, gok, wli, wt, wok)
			}
			// The index holds exactly the busy links, one key each: a
			// second invalidate of any link leaves its length alone. It
			// would insert a busy link the index lacked and remove an idle
			// one it held, and on a link already keyed at its NextFinish
			// it does no heap work.
			busy := 0
			for li, l := range links {
				if l.InFlight() > 0 {
					busy++
				}
				n := x.busy.Len()
				if x.invalidate(li); x.busy.Len() != n {
					t.Fatalf("seed %d step %d: link %d (%d in flight) was held wrongly: index length %d became %d",
						seed, step, li, l.InFlight(), n, x.busy.Len())
				}
			}
			if x.busy.Len() != busy {
				t.Fatalf("seed %d step %d: index holds %d links, %d are busy", seed, step, x.busy.Len(), busy)
			}
		}
	}
}
