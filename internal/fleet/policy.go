package fleet

// latLog is one watched class's offload latencies, kept once for every
// controller that watches the class: its own (watcher watchClass, an
// adaptive class), the global one (watchGlobal, a class with a table), or
// both. Watcher k reads the latencies completed since its last decision,
// lat[from[k]:], and after each decision the log drops the prefix that
// every watcher has read.
type latLog struct {
	lat      []float64
	from     [2]int
	seen     [2]int64 // DroppedQueue + DroppedOutage at each watcher's last decision
	watchers int      // 0 for a class no controller watches, which logs nothing
}

// The watchers of a latLog.
const watchClass, watchGlobal = 0, 1

// newLogs builds one log per class a controller watches, sized for the
// class's completions over the longer of its watchers' decision periods,
// so it rarely regrows. A class no controller watches allocates nothing,
// and the result is nil when no controller watches any class.
func newLogs(sc *Scenario) []latLog {
	var logs []latLog
	for ci := range sc.Classes {
		cl, sec, n := &sc.Classes[ci], 0.0, 0
		if cl.adaptive() {
			sec, n = cl.Policy.IntervalSec, 1
		}
		if sc.Global != nil && len(cl.Placements) > 0 {
			sec, n = max(sec, sc.Global.EpochSec), n+1
		}
		if n == 0 {
			continue
		}
		if logs == nil {
			logs = make([]latLog, len(sc.Classes))
		}
		logs[ci] = latLog{lat: make([]float64, 0, expectedOffloads(cl, sec)), watchers: n}
	}
	return logs
}

// consume reads watcher k's latencies and returns how many it read, their
// nearest-rank p95 (0 when there were none) and the queue and outage
// drops its class's counters st gained since its last decision. Energy
// drops are not read: an empty store is not congestion. The p95 is read
// by selection, which returns the order statistic a sort would put at
// its rank but reorders the values in place; so when the other watcher's
// latencies start inside this watcher's range, the selection runs over
// two spans split at that start, and no value crosses it.
func (l *latLog) consume(k int, st *ClassStats) (n int, p95 float64, drops int64) {
	from, cut := l.from[k], len(l.lat) // cut: what every watcher will have read
	sp := [2]span{{xs: l.lat[from:]}}
	if l.watchers == 2 {
		if cut = l.from[1-k]; cut > from {
			sp[0].xs, sp[1].xs = l.lat[from:cut], l.lat[cut:]
		}
		l.from[1-k] = 0
	}
	var p [1]float64
	nearestRanks(sp[:], p[:], 0.95)
	n = len(l.lat) - from
	l.lat = l.lat[:copy(l.lat, l.lat[cut:])]
	l.from[k] = len(l.lat)
	now := st.DroppedQueue + st.DroppedOutage
	drops, l.seen[k] = now-l.seen[k], now
	return n, p[0], drops
}

// batchSize is how many of a class's n cameras one decision may move:
// frac × n rounded, at least 1.
func batchSize(frac float64, n int) int {
	if k := int(frac*float64(n) + 0.5); k > 1 {
		return k
	}
	return 1
}

// shuffleMove is the one place a placement move is drawn. It steps up to
// k of class ci's cameras one row dir, within the class's table, and
// returns how many stepped. The cameras are drawn from rng one at a time,
// by a partial Fisher-Yates over those that can move, gathered in the
// engine's one candidate buffer. admit rules on each drawn camera before
// it steps: it may skip the camera or stop the batch. A nil admit steps
// every camera drawn.
func (e *engine) shuffleMove(ci, dir, k int, rng *prng, admit func(idx int32) (step, stop bool)) int {
	last, cand := len(e.sc.Classes[ci].Placements)-1, e.cand[:0]
	for _, idx := range e.classCams[ci] {
		if p := int(e.cams[idx].placement) + dir; p >= 0 && p <= last {
			cand = append(cand, idx)
		}
	}
	e.cand = cand
	moved := 0
	for i := 0; i < len(cand) && moved < k; i++ {
		j := i + rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
		if admit != nil {
			step, stop := admit(cand[i])
			if stop {
				break
			}
			if !step {
				continue
			}
		}
		e.cams[cand[i]].placement += int32(dir)
		moved++
	}
	return moved
}

// controller is the per-class adaptive-placement state: the seeded
// stream every decision draws from (a compact value-embedded prng, like
// the cameras'). The latencies it reads are its class's log's, and the
// row tables it scores against are the engine's, read when it decides.
type controller struct {
	rng prng
}

// newControllers builds one controller per adaptive class (nil entries for
// static or table-less classes). Each controller's stream is the
// controller family's (streamSeed), indexed by its class.
func newControllers(sc *Scenario) []*controller {
	ctls := make([]*controller, len(sc.Classes))
	for ci := range sc.Classes {
		if sc.Classes[ci].adaptive() {
			ctls[ci] = &controller{rng: newPRNG(streamSeed(sc.Seed, seedController, ci))}
		}
	}
	return ctls
}

// rowDelta sums the per-frame table delta rows[to]−rows[at] of stepping
// each of class ci's movable cameras one step dir — positive when the
// step costs more of whatever the table prices — and counts the cameras
// that could move.
func (e *engine) rowDelta(ci int, rows []float64, dir int) (sum float64, n int) {
	for _, idx := range e.classCams[ci] {
		at := int(e.cams[idx].placement)
		to := at + dir
		if to < 0 || to >= len(rows) {
			continue
		}
		sum += rows[to] - rows[at]
		n++
	}
	return sum, n
}

// floorRise is the mean rise in class ci's deterministic delay floor
// (rowDelay) of stepping its movable cameras one row dir: finite tier
// compute makes a step pay it whichever direction it comes from (toward
// offload it is path service, toward in-camera the row's own compute
// seconds). It is 0 when no pool sits on the class's path or the step
// does not raise the floor.
func (e *engine) floorRise(ci, dir int) float64 {
	if rows := e.rowDelay[ci]; rows != nil {
		if d, n := e.rowDelta(ci, rows, dir); n > 0 && d > 0 {
			return d / float64(n)
		}
	}
	return 0
}

// classRowEnergies prices every row of the class (Class.rows) in
// expected joules per captured frame, netPerByteJ of per-hop forwarding
// included.
func classRowEnergies(c *Class, netPerByteJ float64) []float64 {
	rows := make([]float64, len(c.rows()))
	for i := range rows {
		rows[i] = c.PlacementEnergyPerFrame(i, netPerByteJ)
	}
	return rows
}

// decide consumes the class's log and maps it onto a placement step for
// class ci: +1 toward in-camera compute, -1 toward offload, 0 to hold.
func (c *controller) decide(e *engine, ci int) int {
	p := e.sc.Classes[ci].Policy
	n, p95, drops := e.logs[ci].consume(watchClass, &e.res.Classes[ci])
	congested := drops > 0 || (n > 0 && p95 > p.HighSec)
	switch p.Kind {
	case PolicyLatencyThreshold:
		// One-way escalation: congestion pushes cameras toward in-camera
		// compute and they stay there. Simple, monotone, flap-free.
		if congested {
			return 1
		}
	case PolicyHysteresis:
		// Two thresholds with a dead band: step toward in-camera above
		// HighSec, back toward offload when the network is demonstrably
		// idle (completions observed, all cheap, nothing dropped).
		if congested {
			return 1
		}
		if n > 0 && p95 < p.LowSec {
			return -1
		}
	case PolicyEnergyLatency:
		// Congestion keeps the latency-threshold rule verbatim, so an
		// energy weight of zero reproduces its switch sequence exactly.
		if congested {
			return 1
		}
		if p.EnergyWeight > 0 && n > 0 {
			return energyStep(e, ci, p95)
		}
	}
	return 0
}

// energyStep scores class ci's two adjacent placements on the weighted
// energy-latency objective, against the engine's row tables as they stand
// now: moving dir is worth EnergyWeight × the mean per-frame joules it
// saves across the movable cameras, minus the latency it risks re-adding
// — the observed p95 for a step toward offload (which loads the network),
// nothing for a step toward in-camera compute (which relieves it), plus
// the step's delay-floor rise either way. The larger strictly-positive
// gain wins; in-camera is evaluated first so ties resolve to the
// congestion-safe direction.
func energyStep(e *engine, ci int, p95 float64) int {
	weight := e.sc.Classes[ci].Policy.EnergyWeight
	best, bestGain := 0, 0.0
	for _, dir := range [2]int{+1, -1} {
		sum, n := e.rowDelta(ci, e.rowJ[ci], dir)
		if n == 0 {
			continue
		}
		saved := -sum
		risk := e.floorRise(ci, dir)
		if dir < 0 {
			risk += p95
		}
		if gain := weight*saved/float64(n) - risk; gain > bestGain {
			best, bestGain = dir, gain
		}
	}
	return best
}

// move steps a MoveFraction-sized batch of class ci's cameras one row dir,
// every camera the controller's stream draws, and counts the moves on the
// class.
func (c *controller) move(e *engine, ci, dir int) {
	k := batchSize(e.sc.Classes[ci].Policy.MoveFraction, len(e.classCams[ci]))
	e.res.Classes[ci].Switches += int64(e.shuffleMove(ci, dir, k, &c.rng, nil))
}
