package fleet

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"camsim/internal/fleet/quantile"
)

// checkQuantileWithinEps asserts a sketch estimate lies between the
// exact sample values at ranks target±(Eps·n+1) — the value form of the
// rank bound, which stays meaningful when many samples tie (periodic
// identical-service traffic produces long runs of equal latencies, so
// one value can legitimately occupy a wide rank range). finalize leaves
// the exact samples in selection order, so the ranks are read from a
// sorted copy.
func checkQuantileWithinEps(t *testing.T, label string, exact []float64, q, est float64) {
	t.Helper()
	exact = slices.Clone(exact)
	slices.Sort(exact)
	n := len(exact)
	if n == 0 {
		if est != 0 {
			t.Errorf("%s q=%v: estimate %v with no samples", label, q, est)
		}
		return
	}
	target := int(math.Ceil(q * float64(n)))
	slack := int(math.Ceil(quantile.Eps*float64(n))) + 1
	clamp := func(r int) int {
		if r < 1 {
			return 1
		}
		if r > n {
			return n
		}
		return r
	}
	lo, hi := exact[clamp(target-slack)-1], exact[clamp(target+slack)-1]
	if est < lo || est > hi {
		t.Errorf("%s q=%v: estimate %v outside exact rank band [%v, %v] (n=%d)", label, q, est, lo, hi, n)
	}
}

// runExact runs sc down the exact statistics path, as Run does, and
// returns its result with the latency samples the accumulator kept.
func runExact(sc Scenario) (*Result, exactLatencies, error) {
	e, err := newEngine(sc)
	if err != nil {
		return nil, nil, err
	}
	e.loop()
	return e.result(), e.acc.(exactLatencies), nil
}

// TestStreamingDifferential runs randomized scenarios down both
// statistics paths: the streaming run must reproduce every exact
// counter bit-for-bit (the collector only changes how latencies are
// accumulated, never the simulation), and its latency quantiles must
// sit within the sketch's documented rank-error bound of the exact
// nearest-rank answers.
func TestStreamingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 25; iter++ {
		sc := randomScenario(rng)
		exact, samples, err := runExact(sc)
		if err != nil {
			t.Fatalf("iter %d: exact: %v", iter, err)
		}
		scs := sc
		scs.Telemetry = &TelemetryConfig{Streaming: true}
		stream, err := Run(scs)
		if err != nil {
			t.Fatalf("iter %d: streaming: %v", iter, err)
		}

		if exact.SimEnd != stream.SimEnd || exact.UplinkUtilization != stream.UplinkUtilization {
			t.Fatalf("iter %d (%s): run shape diverged: SimEnd %v vs %v", iter, sc.Name, exact.SimEnd, stream.SimEnd)
		}
		if !reflect.DeepEqual(exact.Tiers, stream.Tiers) {
			t.Fatalf("iter %d (%s): tier stats diverged", iter, sc.Name)
		}
		if exact.Energy != stream.Energy {
			t.Fatalf("iter %d (%s): energy diverged: %+v vs %+v", iter, sc.Name, exact.Energy, stream.Energy)
		}
		var all []float64
		for ci := range exact.Classes {
			e, s := &exact.Classes[ci], &stream.Classes[ci]
			if e.Captured != s.Captured || e.Offloaded != s.Offloaded ||
				e.DroppedQueue != s.DroppedQueue || e.DroppedEnergy != s.DroppedEnergy ||
				e.KeptInCamera != s.KeptInCamera || e.EnergyJ != s.EnergyJ || e.Switches != s.Switches {
				t.Fatalf("iter %d (%s): class %s counters diverged:\n%+v\nvs\n%+v", iter, sc.Name, e.Name, e, s)
			}
			// finalize left the exact path's samples in selection order;
			// checkQuantileWithinEps reads ranks from a sorted copy.
			checkQuantileWithinEps(t, e.Name, samples[ci], 0.50, s.LatencyP50)
			checkQuantileWithinEps(t, e.Name, samples[ci], 0.95, s.LatencyP95)
			checkQuantileWithinEps(t, e.Name, samples[ci], 0.99, s.LatencyP99)
			all = append(all, samples[ci]...)
		}
		checkQuantileWithinEps(t, "fleet", all, 0.50, stream.Total.LatencyP50)
		checkQuantileWithinEps(t, "fleet", all, 0.95, stream.Total.LatencyP95)
		checkQuantileWithinEps(t, "fleet", all, 0.99, stream.Total.LatencyP99)
	}
}

// TestStreamingDeterministic pins the streaming path's replayability:
// the seeded compaction coin means two runs agree byte for byte.
func TestStreamingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sc := randomScenario(rng)
	sc.Telemetry = &TelemetryConfig{Streaming: true, WindowSec: 0.25}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table() != b.Table() {
		t.Fatalf("streaming tables diverged:\n%s\nvs\n%s", a.Table(), b.Table())
	}
	if !reflect.DeepEqual(a.TimeSeries, b.TimeSeries) {
		t.Fatal("time series diverged between identical runs")
	}
}

// windowedDemo is a small deterministic scenario with enough traffic to
// populate several windows, including queue pressure.
func windowedDemo() Scenario {
	return Scenario{
		Name:     "windowed",
		Seed:     42,
		Duration: 2,
		Tiers: []Tier{
			{Name: "gw", Parent: "core", Uplink: UplinkConfig{Gbps: 0.002}},
			{Name: "core", Uplink: UplinkConfig{Gbps: 0.004}},
		},
		Classes: []Class{
			{Name: "edge", Count: 20, FPS: 10, FrameBytes: 20_000, Tier: "gw", QueueDepth: 2},
			{Name: "hub", Count: 5, FPS: 4, FrameBytes: 10_000},
		},
		Telemetry: &TelemetryConfig{Streaming: true, WindowSec: 0.5},
	}
}

// TestWindowedTimeSeries checks the windowed output's accounting: the
// windows tile [0, SimEnd) in order, every window's counters sum to the
// run totals, utilizations are sane, and the rendered CSV/JSON agree
// with the structure.
func TestWindowedTimeSeries(t *testing.T) {
	res, err := Run(windowedDemo())
	if err != nil {
		t.Fatal(err)
	}
	ts := res.TimeSeries
	if ts == nil {
		t.Fatal("no time series")
	}
	if ts.WindowSec != 0.5 {
		t.Fatalf("window = %v", ts.WindowSec)
	}
	if want := []string{"edge", "hub"}; !reflect.DeepEqual(ts.Classes, want) {
		t.Fatalf("classes = %v", ts.Classes)
	}
	if want := []string{"gw", "core"}; !reflect.DeepEqual(ts.Tiers, want) {
		t.Fatalf("tiers = %v", ts.Tiers)
	}
	if len(ts.Windows) < 4 {
		t.Fatalf("only %d windows over %.1fs sim end", len(ts.Windows), res.SimEnd)
	}
	var offl, dropQ, dropE int64
	prevEnd := 0.0
	for i, win := range ts.Windows {
		if win.Index != i || win.Start != prevEnd || win.End <= win.Start {
			t.Fatalf("window %d malformed: %+v (prev end %v)", i, win, prevEnd)
		}
		prevEnd = win.End
		if len(win.Classes) != 2 || len(win.TierUtil) != 2 {
			t.Fatalf("window %d shape: %+v", i, win)
		}
		for ci, wc := range win.Classes {
			offl += wc.Offloaded
			dropQ += wc.DroppedQueue
			dropE += wc.DroppedEnergy
			if wc.Offloaded > 0 && (wc.P50 <= 0 || wc.P50 > wc.P95 || wc.P95 > wc.P99) {
				t.Fatalf("window %d class %d quantiles not ordered: %+v", i, ci, wc)
			}
			if wc.Offloaded == 0 && wc.P99 != 0 {
				t.Fatalf("window %d class %d quantiles without samples: %+v", i, ci, wc)
			}
		}
		for li, u := range win.TierUtil {
			if !(u >= 0) || math.IsInf(u, 0) {
				t.Fatalf("window %d tier %d utilization %v", i, li, u)
			}
		}
	}
	if prevEnd != res.SimEnd {
		t.Fatalf("windows end at %v, sim at %v", prevEnd, res.SimEnd)
	}
	// Conservation: bytes credit at completion, so a single window can
	// exceed utilization 1 — but the time-weighted mean across windows
	// must equal each link's run-wide utilization.
	for li, name := range ts.Tiers {
		ti := res.TierNamed(name)
		var weighted float64
		for _, win := range ts.Windows {
			weighted += win.TierUtil[li] * (win.End - win.Start)
		}
		if got := weighted / res.SimEnd; math.Abs(got-ti.Utilization) > 1e-9 {
			t.Fatalf("tier %s: windowed mean utilization %v, run-wide %v", name, got, ti.Utilization)
		}
	}
	if offl != res.Total.Offloaded || dropQ != res.Total.DroppedQueue || dropE != res.Total.DroppedEnergy {
		t.Fatalf("window sums %d/%d/%d, run totals %d/%d/%d",
			offl, dropQ, dropE, res.Total.Offloaded, res.Total.DroppedQueue, res.Total.DroppedEnergy)
	}
	if res.Total.Offloaded == 0 || res.Total.DroppedQueue == 0 {
		t.Fatal("scenario no longer exercises offloads and queue drops")
	}

	var csv, js strings.Builder
	if err := ts.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if want := 1 + len(ts.Windows)*(len(ts.Classes)+len(ts.Tiers)); len(lines) != want {
		t.Fatalf("CSV has %d lines, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "window,start_sec,end_sec,kind,name,") {
		t.Fatalf("CSV header: %q", lines[0])
	}
	if err := ts.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), "\"window_sec\": 0.5") {
		t.Fatalf("JSON missing window_sec: %.120s", js.String())
	}
}

// csvByFmt renders ts as WriteCSV did with fmt, every row formatted into
// one string: the reference TestWriteCSVMatchesFmt holds the streamed
// writer to.
func csvByFmt(ts *TimeSeries) string {
	avail := len(ts.Windows) > 0 && ts.Windows[0].TierDownSec != nil
	var b strings.Builder
	b.WriteString("window,start_sec,end_sec,kind,name,offloaded,dropped_queue,dropped_energy,p50_sec,p95_sec,p99_sec,utilization")
	if avail {
		b.WriteString(",dropped_outage,down_sec,cap_frac")
	}
	b.WriteString("\n")
	for _, win := range ts.Windows {
		for ci, wc := range win.Classes {
			fmt.Fprintf(&b, "%d,%g,%g,class,%s,%d,%d,%d,%g,%g,%g,",
				win.Index, win.Start, win.End, ts.Classes[ci],
				wc.Offloaded, wc.DroppedQueue, wc.DroppedEnergy, wc.P50, wc.P95, wc.P99)
			if avail {
				fmt.Fprintf(&b, ",%d,,", wc.DroppedOutage)
			}
			b.WriteString("\n")
		}
		for ti, u := range win.TierUtil {
			fmt.Fprintf(&b, "%d,%g,%g,tier,%s,,,,,,,%g",
				win.Index, win.Start, win.End, ts.Tiers[ti], u)
			if avail {
				fmt.Fprintf(&b, ",,%g,%g", win.TierDownSec[ti], win.TierCapFrac[ti])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// failWriter fails every write.
type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

// TestWriteCSVMatchesFmt renders series holding the values whose %g
// forms differ most — 0, −0, the least subnormal, 1e-5 and 1e21 (where
// %g turns to exponents), ±Inf, NaN — and counts up to the int64
// limits, with and without the availability columns, and holds WriteCSV
// to the fmt rendering byte for byte. A failing writer's error comes
// back from WriteCSV.
func TestWriteCSVMatchesFmt(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, 1e-5, 1e21, math.Inf(1), math.Inf(-1), math.NaN(), 0.1, 1.0 / 3, 123456.789, 2.5e-7}
	counts := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1<<53 + 1, 42}
	k := 0
	v := func() float64 { k++; return vals[k%len(vals)] }
	n := func() int64 { k++; return counts[k%len(counts)] }
	for _, avail := range []bool{false, true} {
		ts := &TimeSeries{WindowSec: 0.5, Classes: []string{"east", "west"}, Tiers: []string{"gw", "gw:down", "gw:compute"}}
		for i := range 14 {
			win := Window{Index: i << (3 * i), Start: v(), End: v()}
			for range ts.Classes {
				win.Classes = append(win.Classes, WindowClass{
					Offloaded: n(), DroppedQueue: n(), DroppedEnergy: n(), DroppedOutage: n(),
					P50: v(), P95: v(), P99: v(),
				})
			}
			for range ts.Tiers {
				win.TierUtil = append(win.TierUtil, v())
				if avail {
					win.TierDownSec = append(win.TierDownSec, v())
					win.TierCapFrac = append(win.TierCapFrac, v())
				}
			}
			ts.Windows = append(ts.Windows, win)
		}
		var got strings.Builder
		if err := ts.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if want := csvByFmt(ts); got.String() != want {
			t.Errorf("availability columns %v: WriteCSV wrote\n%s\nfmt renders\n%s", avail, got.String(), want)
		}
		full := errors.New("disk full")
		if err := ts.WriteCSV(failWriter{full}); !errors.Is(err, full) {
			t.Errorf("availability columns %v: a failing writer gave %v, want %v", avail, err, full)
		}
	}
}

// dropWindowsDemo is a windowed dynamics run whose windows see every drop
// cause: queue drops behind saturated gateways, energy drops of a
// harvesting class, outage drops in flight when gw-a fails at 1 s and on
// arrival at it from the leaf tier below, and the transfers stalled on
// gw-c, parked at factor 0 at 1.5 s and never restored, which drain as
// outage drops into the last window. gw-a never recovers, so its
// downtime is still accruing when the run ends.
func dropWindowsDemo() Scenario {
	return Scenario{
		Name:     "drop-windows",
		Seed:     9,
		Duration: 3,
		Tiers: []Tier{
			{Name: "leaf", Parent: "gw-a", Uplink: UplinkConfig{Gbps: 0.01}},
			{Name: "gw-a", Parent: "core", Uplink: UplinkConfig{Gbps: 0.002}},
			{Name: "gw-b", Parent: "core", Uplink: UplinkConfig{Gbps: 0.004, Contention: ContentionFIFO}},
			{Name: "gw-c", Parent: "core", Uplink: UplinkConfig{Gbps: 0.004}},
			{Name: "core", Uplink: UplinkConfig{Gbps: 0.02}},
		},
		Classes: []Class{
			{Name: "east", Count: 8, FPS: 6, FrameBytes: 40_000, Tier: "gw-a", QueueDepth: 2},
			{Name: "leaf", Count: 6, FPS: 5, FrameBytes: 20_000, Tier: "leaf", QueueDepth: 3, Arrival: ArrivalPoisson},
			{Name: "solar", Count: 6, FPS: 8, FrameBytes: 10_000, Tier: "gw-b", QueueDepth: 3,
				CaptureJ: 1e-3, TxFixedJ: 1e-3, TxPerByteJ: 1e-7, HarvestW: 0.01, StoreJ: 0.02},
			{Name: "parked", Count: 4, FPS: 4, FrameBytes: 20_000, Tier: "gw-c", QueueDepth: 4},
		},
		Telemetry: &TelemetryConfig{Streaming: true, WindowSec: 0.4},
		Dynamics: &DynamicsConfig{Events: []FleetEvent{
			{Time: 1, Kind: DynTierOutage, Tier: "gw-a", Fallback: "gw-b"},
			{Time: 1.5, Kind: DynLinkDegrade, Tier: "gw-c", Factor: 0},
		}},
	}
}

// TestTimeSeriesDigests pins the CSV of three windowed runs byte for
// byte, so a count that lands in the wrong window fails here even when
// every column still sums to its run total: windowedDemo's queue drops,
// dropWindowsDemo's every drop cause and open outage, and a recovered
// outage beside a degraded-then-restored link. The digests were recorded
// while each window kept its own copy of the counts; dropWindowsDemo's,
// whose fleet has a Poisson class, was re-recorded when that class moved
// onto one arrival stream.
func TestTimeSeriesDigests(t *testing.T) {
	recovered := dynamicsDemo(12)
	recovered.Telemetry = &TelemetryConfig{Streaming: true, WindowSec: 1}
	recovered.Dynamics = &DynamicsConfig{Events: []FleetEvent{
		{Time: 2, Kind: DynTierOutage, Tier: "gw-a", Fallback: "gw-b"},
		{Time: 4, Kind: DynTierRecover, Tier: "gw-a"},
		{Time: 5, Kind: DynLinkDegrade, Tier: "gw-b", Factor: 0.5},
		{Time: 7, Kind: DynLinkRestore, Tier: "gw-b"},
	}}
	for _, tc := range []struct {
		sc   Scenario
		want string
	}{
		{windowedDemo(), "94d21ec080282b307e7fc7896246ca69fd8450d99cf8affa1b8a5fb2ac337ac0"},
		{dropWindowsDemo(), "5c04756965c71294aee2ffee7104a3b8abf8d43e3bc4b69b178d3a28c4195b08"},
		{recovered, "61c6be40fbade28ff5d901b3bc80e4786a596ab7800651b7f641433d89cb0840"},
	} {
		res, err := Run(tc.sc)
		if err != nil {
			t.Fatal(err)
		}
		var csv strings.Builder
		if err := res.TimeSeries.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(csv.String()))); got != tc.want {
			t.Errorf("%s: time-series digest %s, want %s:\n%s", tc.sc.Name, got, tc.want, csv.String())
		}
	}
	// The drop run must keep reaching every cause, the stalled drain
	// included: its last window holds outage drops of the parked class.
	res, err := Run(dropWindowsDemo())
	if err != nil {
		t.Fatal(err)
	}
	assertConserved(t, "drop-windows", res)
	tot := res.Total
	if tot.DroppedQueue == 0 || tot.DroppedEnergy == 0 || res.TierNamed("gw-a").OutageDrops == 0 || res.TierNamed("gw-c").OutageDrops == 0 {
		t.Fatalf("drop run no longer reaches every cause: %+v", tot)
	}
	last := res.TimeSeries.Windows[len(res.TimeSeries.Windows)-1]
	if last.Classes[3].DroppedOutage == 0 {
		t.Fatalf("the parked link's stalled drain left the last window: %+v", last.Classes[3])
	}
}

// TestTelemetryValidation walks the section's rejection surface and the
// accepted forms.
func TestTelemetryValidation(t *testing.T) {
	base := windowedDemo()
	ok := base
	ok.Telemetry = &TelemetryConfig{Streaming: true}
	if _, err := Run(ok); err != nil {
		t.Fatalf("streaming without window rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		tel  *TelemetryConfig
		want string
	}{
		{"window without streaming", &TelemetryConfig{WindowSec: 1}, "streaming"},
		{"negative window", &TelemetryConfig{Streaming: true, WindowSec: -1}, "window"},
		{"infinite window", &TelemetryConfig{Streaming: true, WindowSec: math.Inf(1)}, "window"},
	} {
		sc := base
		sc.Telemetry = tc.tel
		if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestTelemetryOffIsExact pins that a present-but-disabled telemetry
// section (streaming: false) runs the legacy exact path: the table is
// byte-identical to one with no telemetry section at all.
func TestTelemetryOffIsExact(t *testing.T) {
	sc := windowedDemo()
	sc.Telemetry = nil
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Telemetry = &TelemetryConfig{}
	off, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Table() != off.Table() {
		t.Fatalf("disabled telemetry perturbed the run:\n%s\nvs\n%s", plain.Table(), off.Table())
	}
	if off.TimeSeries != nil {
		t.Fatal("disabled telemetry produced a time series")
	}
}
