package fleet

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"camsim/internal/fleet/fl"
	"camsim/internal/fleet/quantile"
)

// ClassStats aggregates one camera class over a run (or, for
// Result.Total, the whole fleet).
type ClassStats struct {
	Name    string
	Cameras int

	Captured      int64 // frames captured (including dropped ones)
	Offloaded     int64 // offloads completed over the uplink
	DroppedQueue  int64 // frames dropped by per-camera backpressure
	DroppedEnergy int64 // frames skipped by an empty harvest store
	// DroppedOutage counts frames lost to dynamics outages: in flight
	// through a failing tier, arriving at a down one, or stalled forever
	// on a never-restored zero-capacity link. 0 without a schedule.
	DroppedOutage int64
	// KeptInCamera counts frames captured and paid for but never
	// offloaded: the class does not offload them (no payload, or the
	// offload draw failed), so they end in the camera. With the four
	// counters above it accounts for every captured frame exactly once.
	KeptInCamera int64
	EnergyJ      float64

	// Dynamics churn accounting, 0 without a schedule: cameras added and
	// retired, and camera re-homings (each direction counts once).
	Joined, Left, Rehomed int64

	// Offload latency percentiles, capture to completed upload (through
	// every tier), seconds.
	LatencyP50, LatencyP95, LatencyP99 float64

	// Switches counts individual camera placement moves decided by the
	// class's adaptive controller (0 for static or table-less classes).
	Switches int64
	// PlacementCounts is the final population per placement index, set
	// only for classes carrying a runtime cost table.
	PlacementCounts []int
}

// EnergyPerFrame returns the mean energy per captured frame in joules.
func (s ClassStats) EnergyPerFrame() float64 {
	if s.Captured == 0 {
		return 0
	}
	return s.EnergyJ / float64(s.Captured)
}

// DropRate returns the fraction of captured frames lost to backpressure,
// energy starvation, or an outage.
func (s ClassStats) DropRate() float64 {
	if s.Captured == 0 {
		return 0
	}
	return float64(s.DroppedQueue+s.DroppedEnergy+s.DroppedOutage) / float64(s.Captured)
}

// TierStats is the per-link accounting of one network tier, in resolved
// tree order (declaration order; for the legacy gateway form, each gateway
// link then the top-tier "wan" link).
type TierStats struct {
	Name string
	// Parent names the tier this link feeds into; empty at the root.
	Parent string
	// Depth is the tier's hop distance below the root link (root = 0).
	Depth      int
	Gbps       float64
	Contention string
	// PropagationSec is the link's configured one-way propagation delay.
	PropagationSec float64
	ServedBytes    float64
	// Transfers counts completed transmissions on this link.
	Transfers int64
	// Utilization is served payload over capacity × SimEnd.
	Utilization float64
	// TxPerByteJ is the link's configured forwarding energy per byte;
	// ForwardJ is the energy it actually spent, ServedBytes × TxPerByteJ.
	TxPerByteJ float64
	ForwardJ   float64

	// FLUpBytes is the federated share of ServedBytes: camera update
	// blobs plus merged aggregation blobs this uplink carried. 0 without
	// a federated job.
	FLUpBytes float64

	// Dynamics availability accounting, 0 without a schedule: seconds the
	// tier spent down (outage to recovery, clamped to the run's end) and
	// frames its failures cost (drained in flight plus dropped arrivals).
	DowntimeSec float64
	OutageDrops int64

	// Downlink accounting, set only for tiers declaring one: the
	// parent→tier (cloud→root at the root) link's configuration and its
	// served root→leaf traffic — today the federated model broadcast.
	DownGbps            float64
	DownContention      string
	DownPropagationSec  float64
	DownServedBytes     float64
	DownTransfers       int64
	DownlinkUtilization float64

	// Compute is the tier's core-pool accounting; nil for tiers without a
	// compute section (every tier, in scenarios predating it).
	Compute *ComputeStats
}

// ComputeStats is the accounting of one tier's finite core pool over a
// run: how busy the cores were and how long frames queued for them. The
// wait quantiles come from a KLL sketch (internal/fleet/quantile), so
// they carry its ±1% rank error; BusySec is exact — the conservation the
// compute property tests pin is BusySec = Σ (per-frame service seconds)
// over Frames, never exceeding Cores × wall time.
type ComputeStats struct {
	Cores      int
	Discipline string
	// Frames counts frames the pool finished servicing.
	Frames int64
	// BusySec is the total core-seconds of service delivered.
	BusySec float64
	// Utilization is BusySec over Cores × SimEnd.
	Utilization float64
	// WaitP50/WaitP95 are queueing-delay quantiles: a frame's sojourn in
	// the pool minus its service time, zero when a core was free.
	WaitP50, WaitP95 float64
}

// Label renders the tier's display name: "name->parent" below the root,
// the bare name at it.
func (t TierStats) Label() string {
	if t.Parent == "" {
		return t.Name
	}
	return t.Name + "->" + t.Parent
}

// PropDelayTotal returns the total propagation time accrued at this hop:
// every completed transmission paid the link's one-way delay once.
func (t TierStats) PropDelayTotal() float64 {
	return float64(t.Transfers) * t.PropagationSec
}

// HasDownlink reports whether the tier declared a downlink.
func (t TierStats) HasDownlink() bool { return t.DownGbps > 0 }

// DownPropDelayTotal returns the total propagation time accrued on the
// tier's downlink: every delivered transmission paid its one-way delay.
func (t TierStats) DownPropDelayTotal() float64 {
	return float64(t.DownTransfers) * t.DownPropagationSec
}

// utilization is served payload over capacity × elapsed time, both
// positive: validation admits only positive link capacities and core
// counts, and elapsed is SimEnd (≥ Duration > 0) or the length of a
// closed telemetry window.
func utilization(servedBytes, bytesPerSec, elapsed float64) float64 {
	return servedBytes / (bytesPerSec * elapsed)
}

// EnergyStats is the run's fleet-wide energy accounting, the second axis
// of the paper's tradeoff surfaced alongside latency.
type EnergyStats struct {
	// CameraJ is the total camera-side energy actually charged over the
	// run (capture + compute + radio, summed over every class).
	CameraJ float64
	// NetworkJ is the forwarding energy the tier tree spent: each link's
	// observed served bytes times its configured TxPerByteJ.
	NetworkJ float64
	// AvgPowerW is (CameraJ + NetworkJ) / SimEnd.
	AvgPowerW float64
	// ProjectedW is the fleet's steady-state placement power at the final
	// placements — the quantity the global controller budgets.
	ProjectedW float64
}

// GlobalStats reports the fleet-wide energy-aware controller's decisions.
type GlobalStats struct {
	// BudgetW echoes the configured fleet-wide placement power budget.
	BudgetW float64
	// Moves counts every camera the global controller reassigned.
	Moves int64
	// Epochs holds one entry per decision tick, in time order.
	Epochs []GlobalEpoch
}

// GlobalEpoch is one global decision: the projected placement power
// before and after its reassignments.
type GlobalEpoch struct {
	Time    float64
	BeforeW float64
	AfterW  float64
	Moves   []GlobalMove
}

// GlobalMove is one epoch's reassignment of part of one class: Count
// cameras stepped Dir (+1 toward in-camera compute, -1 toward offload),
// for Reason "latency" (congestion relief) or "energy" (budget shedding).
type GlobalMove struct {
	Class  string
	Dir    int
	Count  int
	Reason string
}

// Result is the outcome of one simulated scenario.
type Result struct {
	Scenario Scenario
	Classes  []ClassStats
	Total    ClassStats
	// Tiers holds per-tier stats in Scenario.Tiers order. A flat scenario
	// has exactly one entry, its root "wan"; a "gateways" scenario has its
	// gateways in scenario order, then "wan".
	Tiers []TierStats
	// SimEnd is when the run ended (≥ Scenario.Duration): the latest of
	// the last offload's landing, the federated job's final model
	// delivery and the last fault-schedule entry to fire.
	SimEnd float64
	// UplinkUtilization is the root tier's uplink utilization (the only
	// link's, in a flat scenario) — served payload over capacity × SimEnd.
	UplinkUtilization float64
	// Energy is the fleet-wide energy accounting of the run.
	Energy EnergyStats
	// Global reports the global controller's epochs; nil when the
	// scenario does not configure one.
	Global *GlobalStats
	// Federated reports the federated job's per-round telemetry; nil
	// when the scenario does not configure one.
	Federated *fl.Stats
	// TimeSeries is the windowed streaming telemetry; nil unless the
	// scenario sets telemetry.streaming with a window_sec.
	TimeSeries *TimeSeries
	// Dynamics is the fault schedule's run-wide accounting; nil unless
	// the scenario carries a non-empty dynamics section.
	Dynamics *DynamicsStats
}

// TierNamed returns the stats of the named tier, or nil. Tiers keep their
// declared names; Normalize names the root of a flat or "gateways"
// scenario "wan".
func (r *Result) TierNamed(name string) *TierStats {
	for i := range r.Tiers {
		if r.Tiers[i].Name == name {
			return &r.Tiers[i]
		}
	}
	return nil
}

func newResult(sc Scenario) *Result {
	res := &Result{Scenario: sc}
	for _, c := range sc.Classes {
		res.Classes = append(res.Classes, ClassStats{Name: c.Name})
	}
	return res
}

// finalQuantiles are the quantiles finalize reports, in increasing
// order: ClassStats' LatencyP50, LatencyP95 and LatencyP99.
var finalQuantiles = [3]float64{0.50, 0.95, 0.99}

// span is one slice of a selection across several: the window
// xs[lo:hi] still holds the rank sought, and a partition splits the
// window at lt and gt.
type span struct {
	xs             []float64
	lo, hi, lt, gt int
}

// partition reorders the window around p: afterwards xs[lo:lt] ≤ p,
// xs[lt:gt] = p and xs[gt:hi] ≥ p. Scans stop on values equal to p, so
// heavy duplicates still split evenly, and they are bounded, because p
// need not be a value of this slice.
func (s *span) partition(p float64) {
	xs, i, j := s.xs, s.lo, s.hi-1
	for i <= j {
		for i <= j && xs[i] < p {
			i++
		}
		for i <= j && xs[j] > p {
			j--
		}
		if i <= j {
			xs[i], xs[j] = xs[j], xs[i]
			i++
			j--
		}
	}
	s.lt, s.gt = j+1, i
}

// nearestRanks sets out[i] to the nearest-rank qs[i]-quantile of all the
// spans' samples together, for qs in increasing order: exactly
// quantile.NearestRank on a sorted concatenation, which it never makes.
// It reorders each slice in place and copies none; no samples yield
// zeros. Each rank is selected right of the previous one.
func nearestRanks(sp []span, out []float64, qs ...float64) {
	n := 0
	for i := range sp {
		sp[i].lo = 0
		n += len(sp[i].xs)
	}
	if n == 0 {
		clear(out[:len(qs)])
		return
	}
	for i, q := range qs {
		out[i] = selectRank(sp, quantile.Rank(n, q)-1, 2*bits.Len(uint(n)))
	}
}

// selectRank returns the value a sort of all the spans' slices together
// would put at 0-based rank k. Every value left of a span's lo must be ≤
// every value at or right of any lo, and rank below k; selectRank keeps
// that so for the next rank, moving each lo past values it finds to rank
// below k. It is Hoare's selection run across the slices at once: each
// round takes one median-of-three pivot from the largest window,
// partitions every window around it and narrows all of them to the side
// that holds the rank. Windows down to a handful of values in all, or
// still unresolved after budget rounds, are sorted and walked in merged
// order, which bounds the worst case at O(n log n).
func selectRank(sp []span, k, budget int) float64 {
	r := k // the rank sought within the windows
	for i := range sp {
		sp[i].hi = len(sp[i].xs)
		r -= sp[i].lo
	}
	for ; budget > 0; budget-- {
		tot, big := 0, 0
		for i := range sp {
			m := sp[i].hi - sp[i].lo
			tot += m
			if m > sp[big].hi-sp[big].lo {
				big = i
			}
		}
		if tot <= 16 {
			break
		}
		b := &sp[big]
		x, y, z := b.xs[b.lo], b.xs[b.lo+(b.hi-b.lo)/2], b.xs[b.hi-1]
		if x > y {
			x, y = y, x
		}
		p := max(x, min(y, z))
		below, equal := 0, 0
		for i := range sp {
			sp[i].partition(p)
			below += sp[i].lt - sp[i].lo
			equal += sp[i].gt - sp[i].lt
		}
		switch {
		case r < below:
			for i := range sp {
				sp[i].hi = sp[i].lt
			}
		case r >= below+equal:
			for i := range sp {
				sp[i].lo = sp[i].gt
			}
			r -= below + equal
		default:
			for i := range sp {
				sp[i].lo = sp[i].lt
			}
			return p
		}
	}
	for i := range sp {
		slices.Sort(sp[i].xs[sp[i].lo:sp[i].hi])
	}
	for ; ; r-- {
		m := -1
		for i := range sp {
			if s := &sp[i]; s.lo < s.hi && (m < 0 || s.xs[s.lo] < sp[m].xs[sp[m].lo]) {
				m = i
			}
		}
		if r == 0 {
			return sp[m].xs[sp[m].lo]
		}
		sp[m].lo++
	}
}

// accumulator is how a run accumulates offload latencies: exactly
// (exactLatencies, every sample kept) or streaming (the telemetry
// collector's sketches and windows). The engine chooses one at
// construction and reports every completion and clock advance to it
// without knowing which. Neither counts outcomes: a window reads its
// counts from the run's class counters.
type accumulator interface {
	// observe records one completed offload of class ci.
	observe(ci int, lat float64)
	// advance moves the accumulator's clock to t, the time of the event
	// about to run.
	advance(t float64)
	// finish seals the accumulation at the run's end and returns the
	// windowed time series, nil when there is none.
	finish(simEnd float64) *TimeSeries
	// quantiles returns the run-wide per-class and fleet-total latency
	// quantiles, in finalQuantiles order.
	quantiles() (perClass [][3]float64, total [3]float64)
}

// exactLatencies keeps every completed offload's latency, one slice per
// class, and reads the nearest ranks by selection. The samples live as
// long as the run's engine, not in its Result.
type exactLatencies [][]float64

// expectedOffloads sizes a slice for class cl's completed offloads over
// sec seconds: their expected count m = FPS × sec × Count × OffloadProb,
// plus four standard deviations of a Poisson count of mean m. The margin
// keeps a Poisson class whose realized count passes its mean, about half
// of them, from copying its slice into a larger one.
func expectedOffloads(cl *Class, sec float64) int {
	m := cl.FPS * sec * float64(cl.Count) * cl.OffloadProb
	return clampEst(m + 4*math.Sqrt(m))
}

// newExactLatencies preallocates each class's sample slice for its
// expected completions over the run's Duration: the frame-scaled
// allocation the streaming path avoids.
func newExactLatencies(sc *Scenario) exactLatencies {
	x := make(exactLatencies, len(sc.Classes))
	for ci := range sc.Classes {
		x[ci] = make([]float64, 0, expectedOffloads(&sc.Classes[ci], sc.Duration))
	}
	return x
}

func (x exactLatencies) observe(ci int, lat float64) { x[ci] = append(x[ci], lat) }

func (exactLatencies) advance(float64)            {}
func (exactLatencies) finish(float64) *TimeSeries { return nil }

// quantiles selects the ranks of each class's samples and of all of them
// together, across the class slices in place: no slice of all n samples
// is made. It leaves the sample slices in selection order, not sorted.
func (x exactLatencies) quantiles() (perClass [][3]float64, total [3]float64) {
	perClass = make([][3]float64, len(x))
	all := make([]span, len(x))
	for i := range x {
		all[i].xs = x[i]
		nearestRanks(all[i:i+1], perClass[i][:], finalQuantiles[:]...)
	}
	nearestRanks(all, total[:], finalQuantiles[:]...)
	return perClass, total
}

// finalize computes percentiles and the fleet-wide Total from the
// per-class accumulators, in class order so results are reproducible.
func (r *Result) finalize(acc accumulator) {
	perClass, total := acc.quantiles()
	r.Total = ClassStats{Name: "fleet"}
	for i := range r.Classes {
		s := &r.Classes[i]
		p := perClass[i]
		s.LatencyP50, s.LatencyP95, s.LatencyP99 = p[0], p[1], p[2]

		r.Total.Cameras += s.Cameras
		r.Total.Captured += s.Captured
		r.Total.Offloaded += s.Offloaded
		r.Total.DroppedQueue += s.DroppedQueue
		r.Total.DroppedEnergy += s.DroppedEnergy
		r.Total.DroppedOutage += s.DroppedOutage
		r.Total.KeptInCamera += s.KeptInCamera
		r.Total.EnergyJ += s.EnergyJ
		r.Total.Joined += s.Joined
		r.Total.Left += s.Left
		r.Total.Rehomed += s.Rehomed
		r.Total.Switches += s.Switches
	}
	r.Total.LatencyP50, r.Total.LatencyP95, r.Total.LatencyP99 = total[0], total[1], total[2]
}

// FormatLatency renders a latency in engineering units, "—" when no
// sample exists.
func FormatLatency(sec float64) string {
	switch {
	case sec <= 0:
		return "—"
	case sec < 1e-3:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.1fms", sec*1e3)
	}
	return fmt.Sprintf("%.2fs", sec)
}

// Table renders the run as a paper-style per-class stat table.
func (r *Result) Table() string {
	var b strings.Builder
	// The header names the top-tier link: the root tier's uplink.
	var up UplinkConfig
	for i := range r.Scenario.Tiers {
		if r.Scenario.Tiers[i].Parent == "" {
			up = r.Scenario.Tiers[i].Uplink
			break
		}
	}
	fmt.Fprintf(&b, "scenario %-28s uplink %.1f Gb/s %-10s util %5.1f%%  drained %.2fs\n",
		r.Scenario.Name, up.Gbps, up.Contention,
		r.UplinkUtilization*100, r.SimEnd)
	fmt.Fprintf(&b, "  %-22s %6s %9s %9s %7s %7s %8s %8s %8s %10s\n",
		"class", "cams", "captured", "offload", "dropQ", "dropE", "p50", "p95", "p99", "J/frame")
	rows := append([]ClassStats{}, r.Classes...)
	rows = append(rows, r.Total)
	for _, s := range rows {
		fmt.Fprintf(&b, "  %-22s %6d %9d %9d %7d %7d %8s %8s %8s %10.3g\n",
			s.Name, s.Cameras, s.Captured, s.Offloaded, s.DroppedQueue, s.DroppedEnergy,
			FormatLatency(s.LatencyP50), FormatLatency(s.LatencyP95), FormatLatency(s.LatencyP99),
			s.EnergyPerFrame())
	}
	// Tier lines appear for multi-tier topologies, and for any topology
	// once a tier carries a core pool — a flat scenario with compute still
	// has pool stats worth a line.
	anyCompute := false
	for i := range r.Tiers {
		if r.Tiers[i].Compute != nil {
			anyCompute = true
			break
		}
	}
	if len(r.Tiers) > 1 || anyCompute {
		for _, ti := range r.Tiers {
			fmt.Fprintf(&b, "  tier %-22s %5.1f Gb/s %-10s util %5.1f%%  xfers %d",
				ti.Label(), ti.Gbps, ti.Contention, ti.Utilization*100, ti.Transfers)
			if ti.PropagationSec > 0 {
				fmt.Fprintf(&b, "  prop %s", FormatLatency(ti.PropagationSec))
			}
			if ti.ForwardJ > 0 {
				fmt.Fprintf(&b, "  fwd %.3gJ", ti.ForwardJ)
			}
			if ti.FLUpBytes > 0 {
				fmt.Fprintf(&b, "  fl %.4gMB", ti.FLUpBytes/1e6)
			}
			if ti.HasDownlink() {
				fmt.Fprintf(&b, "  down %.1f Gb/s util %5.2f%%", ti.DownGbps, ti.DownlinkUtilization*100)
			}
			if c := ti.Compute; c != nil {
				fmt.Fprintf(&b, "  cpu %dx%s util %5.1f%% wait-p95 %s",
					c.Cores, c.Discipline, c.Utilization*100, FormatLatency(c.WaitP95))
			}
			// Only a dynamics schedule produces these, so legacy tables
			// are unchanged byte for byte.
			if ti.DowntimeSec > 0 {
				fmt.Fprintf(&b, "  down %.2fs", ti.DowntimeSec)
			}
			if ti.OutageDrops > 0 {
				fmt.Fprintf(&b, "  outage-drops %d", ti.OutageDrops)
			}
			fmt.Fprintln(&b)
		}
	}
	if f := r.Federated; f != nil {
		fmt.Fprintf(&b, "  federated rounds %d  cams %d  update %dB model %dB  round p50 %s p95 %s\n",
			f.Rounds, f.Cameras, f.UpdateBytes, f.ModelBytes,
			FormatLatency(f.RoundP50), FormatLatency(f.RoundP95))
		fmt.Fprintf(&b, "    up %.4gMB down %.4gMB  without aggregation %.4gMB (saved %.1f%%)\n",
			f.UpBytes/1e6, f.DownBytes/1e6, f.NaiveUpBytes/1e6, f.SavedFraction()*100)
		for i, rd := range f.PerRound {
			fmt.Fprintf(&b, "    round %2d start %.3fs agg %.3fs end %.3fs  lat %s  straggler-p95 %s\n",
				i+1, rd.Start, rd.AggDone, rd.End,
				FormatLatency(rd.Latency), FormatLatency(rd.StragglerP95))
		}
	}
	// The energy block appears once the scenario models the second cost
	// axis (network forwarding energy or a global budget); legacy
	// latency-only scenarios keep their original table shape.
	if r.Energy.NetworkJ > 0 || r.Global != nil {
		fmt.Fprintf(&b, "  energy camera %.3gJ + network %.3gJ = %.1fW avg, projected %.1fW\n",
			r.Energy.CameraJ, r.Energy.NetworkJ, r.Energy.AvgPowerW, r.Energy.ProjectedW)
	}
	if d := r.Dynamics; d != nil {
		fmt.Fprintf(&b, "  dynamics events %d  joined %d  left %d  rehomed %d  outage-drops %d\n",
			d.Events, d.Joined, d.Left, d.Rehomed, d.DroppedOutage)
	}
	if g := r.Global; g != nil {
		fmt.Fprintf(&b, "  global budget %.1fW  epochs %d  moves %d\n", g.BudgetW, len(g.Epochs), g.Moves)
		for _, ep := range g.Epochs {
			if len(ep.Moves) == 0 {
				continue
			}
			fmt.Fprintf(&b, "    epoch t=%.2fs %.1fW -> %.1fW ", ep.Time, ep.BeforeW, ep.AfterW)
			for _, m := range ep.Moves {
				fmt.Fprintf(&b, " %s %s%+dx%d", m.Reason, m.Class, m.Dir, m.Count)
			}
			fmt.Fprintln(&b)
		}
	}
	for i, s := range r.Classes {
		if len(s.PlacementCounts) == 0 {
			continue
		}
		cl := &r.Scenario.Classes[i]
		fmt.Fprintf(&b, "  policy %-15s %-17s moves %4d  final", s.Name, cl.Policy.Kind, s.Switches)
		for k, n := range s.PlacementCounts {
			name := cl.Placements[k].Name
			if name == "" {
				name = fmt.Sprintf("p%d", k)
			}
			fmt.Fprintf(&b, " %s:%d", name, n)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
