package fleet

import "math"

// globalController is the fleet-wide energy-aware placement controller: a
// single seeded decision loop above the per-class policies. On every
// epoch tick it reads each tabled class's log (the offload latencies
// since its last epoch, and queue and outage drops across every tier),
// prices each placement row in expected joules per frame — camera
// capture, compute and radio plus the per-hop forwarding energy of every
// link between the class's attach tier and the root — and reassigns
// cameras so the fleet's projected placement power stays under the
// configured budget. The row tables and capture rates it prices are the
// engine's, read at each epoch.
type globalController struct {
	cfg   GlobalConfig
	rng   prng
	stats GlobalStats
}

// newGlobal builds the controller, or nil when the scenario does not
// configure one. Its stream is the global family's (streamSeed), indexed
// by the class count. It watches only the classes with a table (newLogs):
// a class without one can never move.
func newGlobal(sc *Scenario) *globalController {
	if sc.Global == nil {
		return nil
	}
	return &globalController{
		cfg:   *sc.Global,
		rng:   newPRNG(streamSeed(sc.Seed, seedGlobal, len(sc.Classes))),
		stats: GlobalStats{BudgetW: sc.Global.BudgetW},
	}
}

// projectedPowerW prices the fleet's steady-state placement power: every
// camera's per-frame energy at its current placement row times its
// class's current capture rate, an fps_profile multiplier included.
// Classes without a cost table contribute their one row's energy — the
// budget is fleet-wide, not per knob — as one multiply by the camera
// count, not a per-camera sum: the two differ in the last bits, and the
// global controller acts on this number.
func (e *engine) projectedPowerW() float64 {
	total := 0.0
	for ci := range e.sc.Classes {
		fps, rows := e.fps[ci], e.rowJ[ci]
		if len(e.sc.Classes[ci].Placements) == 0 {
			total += fps * rows[0] * float64(len(e.classCams[ci]))
			continue
		}
		for _, idx := range e.classCams[ci] {
			total += fps * rows[e.cams[idx].placement]
		}
	}
	return total
}

// epoch runs one global decision at simulated time t. Two phases, both
// deterministic in the scenario seed:
//
// Phase 1 (latency): classes whose epoch-window p95 exceeds HighSec, or
// that dropped frames, get up to MoveFraction of their cameras stepped
// toward in-camera compute (+1, the congestion-relief direction of the
// table convention) — but a step that raises placement power is admitted
// only while the projection stays under budget.
//
// Phase 2 (energy): while the projection still exceeds the budget, a
// greedy knapsack sheds watts: among the non-congested classes it
// repeatedly takes the (class, direction) step with the largest per-frame
// saving — ties to the class with the most p95 headroom, then declaration
// order — moving cameras one at a time until the fleet fits the budget,
// every class hits its per-epoch cap, or no energy-saving step remains.
func (g *globalController) epoch(t float64, e *engine) {
	sc := &e.sc
	nClasses := len(sc.Classes)
	// Per-epoch, per-class reassignment caps; a class without a table has
	// nothing to reassign, so it keeps a cap of 0 through both phases and
	// has no log to read.
	capLeft := make([]int, nClasses)
	p95 := make([]float64, nClasses)
	congested := make([]bool, nClasses)
	for ci := range sc.Classes {
		if len(sc.Classes[ci].Placements) == 0 {
			continue
		}
		capLeft[ci] = batchSize(g.cfg.MoveFraction, len(e.classCams[ci]))
		n, q, drops := e.logs[ci].consume(watchGlobal, &e.res.Classes[ci])
		p95[ci] = q
		congested[ci] = drops > 0 || (n > 0 && g.cfg.HighSec > 0 && q > g.cfg.HighSec)
	}

	projected := e.projectedPowerW()
	ep := GlobalEpoch{Time: t, BeforeW: projected}

	// Phase 1: latency relief for congested classes.
	for ci := range sc.Classes {
		if !congested[ci] || capLeft[ci] == 0 {
			continue
		}
		moved := g.moveAccept(e, ci, +1, capLeft[ci], &projected, true)
		capLeft[ci] -= moved
		if moved > 0 {
			ep.Moves = append(ep.Moves, GlobalMove{Class: sc.Classes[ci].Name, Dir: +1, Count: moved, Reason: "latency"})
		}
	}

	// Phase 2: greedy energy shedding down to the budget. Every pick moves
	// at least one camera, so each pass spends cap and the loop ends. A
	// pick saves power on average over the class's movable cameras, so one
	// of them has a step that does not raise its power: a float sum of
	// deltas is negative only if one of them is. shuffleMove draws from
	// those same cameras, all of them before it gives up, and until
	// moveAccept admits one the projection stays over budget, so it
	// neither skips that camera nor stops: the batch moves it, or one
	// drawn before it.
	for projected > g.cfg.BudgetW {
		best, bestDir := -1, 0
		bestSave, bestHead := 0.0, 0.0
		for ci := range sc.Classes {
			if congested[ci] || capLeft[ci] == 0 {
				continue
			}
			head := math.MaxFloat64
			if g.cfg.HighSec > 0 {
				head = g.cfg.HighSec - p95[ci]
			}
			for _, dir := range [2]int{-1, +1} {
				sum, n := e.rowDelta(ci, e.rowJ[ci], dir)
				if n == 0 {
					continue
				}
				save := -sum / float64(n) // mean joules saved per frame
				if save <= 0 {
					continue
				}
				// Joint admission: a step that saves watts is still refused
				// when its delay-floor rise, stacked on the observed p95
				// (which already carries compute queueing), would break the
				// latency target. Without a rise this never refuses: the
				// class is not congested, so its p95 is within HighSec.
				if g.cfg.HighSec > 0 && p95[ci]+e.floorRise(ci, dir) > g.cfg.HighSec {
					continue
				}
				saveW := save * e.fps[ci]
				if saveW > bestSave || (saveW == bestSave && best >= 0 && head > bestHead) {
					best, bestDir, bestSave, bestHead = ci, dir, saveW, head
				}
			}
		}
		if best < 0 {
			break // infeasible: nothing left to shed, hold best effort
		}
		moved := g.moveAccept(e, best, bestDir, capLeft[best], &projected, false)
		capLeft[best] -= moved
		ep.Moves = append(ep.Moves, GlobalMove{Class: sc.Classes[best].Name, Dir: bestDir, Count: moved, Reason: "energy"})
	}

	ep.AfterW = projected
	for _, m := range ep.Moves {
		g.stats.Moves += int64(m.Count)
	}
	g.stats.Epochs = append(g.stats.Epochs, ep)
}

// moveAccept moves up to k of class ci's cameras one step dir through
// the engine's shuffleMove, admitting each drawn camera only while the
// projected power permits: an energy-increasing step must keep the
// projection under budget, and a non-latency (energy-shedding) move stops
// at the budget line instead of overshooting it. projected is updated in place with
// each admitted camera's exact delta, priced at the class's current rate.
func (g *globalController) moveAccept(e *engine, ci, dir, k int, projected *float64, latency bool) int {
	rows, fps := e.rowJ[ci], e.fps[ci]
	admit := func(idx int32) (step, stop bool) {
		at := int(e.cams[idx].placement)
		deltaW := (rows[at+dir] - rows[at]) * fps
		if deltaW > 0 && *projected+deltaW > g.cfg.BudgetW {
			// This camera's step would push the fleet over budget — but
			// with three or more rows the candidates sit at different
			// rows with different deltas, so skip it and keep drawing
			// for cameras whose step still fits.
			return false, false
		}
		if !latency && *projected <= g.cfg.BudgetW {
			// Energy phase only sheds to the budget line, not beyond it.
			return false, true
		}
		*projected += deltaW
		return true, false
	}
	return e.shuffleMove(ci, dir, k, &g.rng, admit)
}
