package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"camsim/internal/fleet/quantile"
)

// TelemetryConfig opts a scenario into the streaming-statistics path.
type TelemetryConfig struct {
	// Streaming replaces the exact per-class latency sample sets with
	// mergeable KLL quantile sketches (internal/fleet/quantile): memory
	// stops scaling with simulated frames, and the reported percentiles
	// carry the sketch's documented rank-error bound (quantile.Eps)
	// instead of being exact. Off, the simulator keeps its legacy exact
	// path and results are byte-identical to a scenario with no telemetry
	// section at all.
	Streaming bool `json:"streaming"`
	// WindowSec > 0 additionally emits a per-window time series
	// (Result.TimeSeries): per-class nearest-rank p50/p95/p99 offload
	// latency, completed offloads and drops in the window, and each
	// link's utilization over the window. Windows are half-open
	// [k·W, (k+1)·W) in simulated time; the final window is clipped at
	// the run's end. Requires Streaming.
	WindowSec float64 `json:"window_sec,omitempty"`
}

// validateTelemetry checks the telemetry section.
func (sc *Scenario) validateTelemetry() error {
	tc := sc.Telemetry
	if tc == nil {
		return nil
	}
	if !(tc.WindowSec >= 0) || math.IsInf(tc.WindowSec, 0) {
		return fmt.Errorf("fleet: scenario %q: telemetry window %v sec must be finite and non-negative", sc.Name, tc.WindowSec)
	}
	if tc.WindowSec > 0 && !tc.Streaming {
		return fmt.Errorf("fleet: scenario %q: telemetry window_sec needs streaming: true (the time series rides the sketch path)", sc.Name)
	}
	return nil
}

// TimeSeries is the windowed telemetry of one streaming run: one entry
// per window in time order. Only present when the scenario sets
// telemetry.window_sec.
type TimeSeries struct {
	// WindowSec echoes the configured window length.
	WindowSec float64 `json:"window_sec"`
	// Classes and Tiers name the columns of every window's Classes and
	// TierUtil slices: class declaration order, then links in resolved
	// tier order (uplinks first, declared downlinks after as "name:down",
	// compute pools last as "name:compute" — a pool's "utilization" is
	// core-seconds served over cores × window length).
	Classes []string `json:"classes"`
	Tiers   []string `json:"tiers"`
	Windows []Window `json:"windows"`
}

// Window is one closed telemetry window.
type Window struct {
	Index int     `json:"index"`
	Start float64 `json:"start_sec"`
	End   float64 `json:"end_sec"`
	// Classes holds one entry per scenario class, in TimeSeries.Classes
	// order.
	Classes []WindowClass `json:"classes"`
	// TierUtil is each link's served payload over capacity × window
	// length, in TimeSeries.Tiers order. Bytes are credited when a
	// transfer completes, so a window in which a long transfer finishes
	// can report utilization above 1; the time-weighted mean across all
	// windows equals the link's run-wide utilization exactly.
	TierUtil []float64 `json:"tier_util"`
	// TierDownSec and TierCapFrac are the window's availability columns,
	// present only when the scenario carries a dynamics schedule: seconds
	// each link's tier spent down inside the window, and the mean
	// available-capacity fraction of its uplink over the window
	// (∫factor·dt / window length; 1 nominal, 0 a full-window outage).
	// Downlink and compute-pool columns report 0 and 1 — only uplinks
	// degrade today.
	TierDownSec []float64 `json:"tier_down_sec,omitempty"`
	TierCapFrac []float64 `json:"tier_cap_frac,omitempty"`
}

// WindowClass is one class's telemetry inside one window.
type WindowClass struct {
	// Offloaded counts offloads completed (landed in the cloud) in the
	// window; the drops count frames lost in it.
	Offloaded     int64 `json:"offloaded"`
	DroppedQueue  int64 `json:"dropped_queue"`
	DroppedEnergy int64 `json:"dropped_energy"`
	// DroppedOutage counts the class's frames lost to dynamics outages in
	// the window; omitted (always 0) without a schedule.
	DroppedOutage int64 `json:"dropped_outage,omitempty"`
	// P50/P95/P99 are the window's offload latency quantiles (seconds),
	// sketch estimates under the quantile.Eps rank bound; 0 when the
	// window completed no offloads.
	P50 float64 `json:"p50_sec"`
	P95 float64 `json:"p95_sec"`
	P99 float64 `json:"p99_sec"`
}

// WriteJSON writes the time series as one indented JSON document.
func (ts *TimeSeries) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ts)
}

// WriteCSV writes the time series in long form, one row per (window,
// column): class rows carry the counts and quantiles, tier rows the
// window utilization.
//
//	window,start_sec,end_sec,kind,name,offloaded,dropped_queue,dropped_energy,p50_sec,p95_sec,p99_sec,utilization
//
// A series from a dynamics run appends the availability columns —
// ,dropped_outage,down_sec,cap_frac — outage drops on class rows,
// downtime seconds and mean capacity fraction on tier rows; legacy
// series keep the exact legacy shape.
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	avail := len(ts.Windows) > 0 && ts.Windows[0].TierDownSec != nil
	bw := bufio.NewWriter(w)
	bw.WriteString("window,start_sec,end_sec,kind,name,offloaded,dropped_queue,dropped_energy,p50_sec,p95_sec,p99_sec,utilization")
	if avail {
		bw.WriteString(",dropped_outage,down_sec,cap_frac")
	}
	bw.WriteByte('\n')
	// Each row is formatted into one reused buffer and written through
	// bw, which keeps a write error until Flush reports it.
	var row []byte
	for i := range ts.Windows {
		win := &ts.Windows[i]
		for ci, wc := range win.Classes {
			row = appendRowHead(row[:0], win, "class", ts.Classes[ci])
			for _, n := range [...]int64{wc.Offloaded, wc.DroppedQueue, wc.DroppedEnergy} {
				row = strconv.AppendInt(append(row, ','), n, 10)
			}
			for _, v := range [...]float64{wc.P50, wc.P95, wc.P99} {
				row = appendG(row, v)
			}
			row = append(row, ',') // no utilization on a class row
			if avail {
				row = strconv.AppendInt(append(row, ','), wc.DroppedOutage, 10)
				row = append(row, ",,"...) // nor downtime and capacity
			}
			bw.Write(append(row, '\n'))
		}
		for ti, u := range win.TierUtil {
			row = appendRowHead(row[:0], win, "tier", ts.Tiers[ti])
			row = appendG(append(row, ",,,,,,"...), u) // six empty class columns first
			if avail {
				row = append(row, ',') // no outage drops on a tier row
				row = appendG(appendG(row, win.TierDownSec[ti]), win.TierCapFrac[ti])
			}
			bw.Write(append(row, '\n'))
		}
	}
	return bw.Flush()
}

// appendRowHead appends a CSV row's first five fields: the window's
// index, start and end, the row kind and the column name.
func appendRowHead(row []byte, win *Window, kind, name string) []byte {
	row = strconv.AppendInt(row, int64(win.Index), 10)
	row = appendG(appendG(row, win.Start), win.End)
	row = append(append(row, ','), kind...)
	return append(append(row, ','), name...)
}

// appendG appends a comma and v as fmt's %g renders it: the shortest
// form that reads back as v.
func appendG(row []byte, v float64) []byte {
	return strconv.AppendFloat(append(row, ','), v, 'g', -1, 64)
}

// collector is the run's streaming-telemetry state. It observes the
// same completions the exact path keeps — at the same event times, in
// the same order — and counts nothing itself: a window's offloads and
// drops are the change in the run's class counters since the last close,
// as its utilization is the change in each link's served bytes. So
// enabling it cannot perturb the simulation, only how latency statistics
// are accumulated.
type collector struct {
	window float64

	// Run-wide per-class sketches: the streaming path's latency samples.
	run []*quantile.Sketch

	// Current-window state. Without a window, win aliases run and next
	// stays +Inf, so observations land in the run-wide sketches and no
	// window ever closes.
	widx int     // current window index (samples in [widx·W, (widx+1)·W))
	next float64 // the current window's end, (widx+1)·W
	win  []*quantile.Sketch
	// Snapshots at the last window close, so a window's columns are the
	// deltas: each class's four outcome counters (classes aliases the
	// run's ClassStats) and each link's served bytes (links and slots
	// alias the simulator's live links and its link table).
	classes   []ClassStats
	counts    []WindowClass
	links     []Link
	slots     []linkSlot
	linkBytes []float64

	// Dynamics availability state, set only for a run with a fault
	// schedule: per-node snapshots of accrued downtime and ∫factor·dt at
	// the last window close, so a window's columns are the deltas.
	dyn      *dynamics
	downSnap []float64
	capSnap  []float64

	series *TimeSeries
}

// newCollector builds the run's collector: per-class run-wide sketches
// always, window state when the scenario sets a window. classes must be
// the run's live class counters; links and slots the simulator's live
// links and link table (uplinks, then declared downlinks, then compute
// pools); labels names them in the same order. dyn, non-nil only for a
// run with a fault schedule, adds the per-window availability columns.
func newCollector(sc *Scenario, classes []ClassStats, links []Link, slots []linkSlot, labels []string, dyn *dynamics) *collector {
	tel := &collector{window: sc.Telemetry.WindowSec, next: math.Inf(1)}
	tel.run = make([]*quantile.Sketch, len(sc.Classes))
	for i := range tel.run {
		tel.run[i] = quantile.NewSketch()
	}
	tel.win = tel.run
	if tel.window <= 0 {
		return tel
	}
	tel.next = tel.window
	tel.win = make([]*quantile.Sketch, len(sc.Classes))
	for i := range tel.win {
		tel.win[i] = quantile.NewSketch()
	}
	tel.classes = classes
	tel.counts = make([]WindowClass, len(sc.Classes))
	tel.links = links
	tel.slots = slots
	tel.linkBytes = make([]float64, len(links))
	names := make([]string, len(sc.Classes))
	for i := range sc.Classes {
		names[i] = sc.Classes[i].Name
	}
	if dyn != nil {
		tel.dyn = dyn
		tel.downSnap = make([]float64, len(dyn.down))
		tel.capSnap = make([]float64, len(dyn.down))
	}
	tel.series = &TimeSeries{WindowSec: tel.window, Classes: names, Tiers: labels}
	return tel
}

// advance closes every window that ends at or before t. The event loop
// calls it with each event's time before processing it, so samples land
// in the window covering their timestamp: a sample exactly on a
// boundary belongs to the next window (half-open intervals).
func (tel *collector) advance(t float64) {
	for t >= tel.next {
		tel.closeWindow(tel.next)
	}
}

// closeWindow seals the current window: quantiles from its sketches,
// counts from the class counters' deltas, link utilization from the
// served-byte deltas over [start, end), and a fresh window begins. end
// below the nominal boundary is the run's final clipped window. end is
// always past start: advance closes a window at (widx+1)·W, and finish
// only once simEnd has passed the window's start.
func (tel *collector) closeWindow(end float64) {
	start := float64(tel.widx) * tel.window
	win := Window{
		Index:    tel.widx,
		Start:    start,
		End:      end,
		Classes:  make([]WindowClass, len(tel.win)),
		TierUtil: make([]float64, len(tel.links)),
	}
	for ci, s := range tel.win {
		c, last := &tel.classes[ci], tel.counts[ci]
		now := WindowClass{Offloaded: c.Offloaded, DroppedQueue: c.DroppedQueue, DroppedEnergy: c.DroppedEnergy, DroppedOutage: c.DroppedOutage}
		wc := WindowClass{
			Offloaded:     now.Offloaded - last.Offloaded,
			DroppedQueue:  now.DroppedQueue - last.DroppedQueue,
			DroppedEnergy: now.DroppedEnergy - last.DroppedEnergy,
			DroppedOutage: now.DroppedOutage - last.DroppedOutage,
		}
		tel.counts[ci] = now
		if s.Count() > 0 {
			p := sketchQuantiles(s)
			wc.P50, wc.P95, wc.P99 = p[0], p[1], p[2]
		}
		win.Classes[ci] = wc
		// The window's samples fold into the run-wide sketch here — the
		// mergeability that makes per-window sketches sufficient. Merge
		// copies the retained items, so the window sketch can be reset in
		// place and its storage reused for the next window.
		tel.run[ci].Merge(s)
		s.Reset()
	}
	for li, l := range tel.links {
		served := l.ServedBytes()
		win.TierUtil[li] = utilization(served-tel.linkBytes[li], tel.slots[li].cap, end-start)
		tel.linkBytes[li] = served
	}
	if dyn := tel.dyn; dyn != nil {
		// Availability columns span every link; downlink and compute-pool
		// entries (indices past the uplinks) stay at the nominal 0 / 1.
		win.TierDownSec = make([]float64, len(tel.links))
		win.TierCapFrac = make([]float64, len(tel.links))
		for li := range win.TierCapFrac {
			win.TierCapFrac[li] = 1
		}
		for ni := range dyn.down {
			dd := dyn.down[ni].at(end) - tel.downSnap[ni]
			if dd < 0 {
				dd = 0 // rounding: the snapshot is a running sum of deltas
			}
			win.TierDownSec[ni] = dd
			tel.downSnap[ni] += dd
			ci := dyn.capacity[ni].at(end)
			if frac := (ci - tel.capSnap[ni]) / (end - start); frac >= 0 {
				win.TierCapFrac[ni] = frac
			}
			tel.capSnap[ni] = ci
		}
	}
	tel.series.Windows = append(tel.series.Windows, win)
	tel.widx++
	tel.next = float64(tel.widx+1) * tel.window
}

// observe records one completed offload of class ci with the given
// capture-to-arrival latency.
func (tel *collector) observe(ci int, lat float64) { tel.win[ci].Add(lat) }

// finish closes out the collector at the run's end: the in-progress
// window (if any traffic or time remains in it) is sealed clipped at
// simEnd.
func (tel *collector) finish(simEnd float64) *TimeSeries {
	if tel.window <= 0 {
		return nil
	}
	tel.advance(simEnd)
	if start := float64(tel.widx) * tel.window; simEnd > start {
		tel.closeWindow(simEnd)
	}
	return tel.series
}

// quantiles returns the run-wide per-class and fleet-total latency
// quantiles from the streaming sketches, in finalize's (p50, p95, p99)
// shape. The fleet total merges every class's sketch — the same
// samples the exact path selects across.
func (tel *collector) quantiles() (perClass [][3]float64, total [3]float64) {
	perClass = make([][3]float64, len(tel.run))
	all := quantile.NewSketch()
	for ci, s := range tel.run {
		perClass[ci] = sketchQuantiles(s)
		all.Merge(s)
	}
	return perClass, sketchQuantiles(all)
}

// sketchQuantiles reads s's finalQuantiles from one walk of its levels.
func sketchQuantiles(s *quantile.Sketch) (p [3]float64) {
	s.Quantiles(p[:], finalQuantiles[:]...)
	return p
}
