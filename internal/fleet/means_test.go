package fleet

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"camsim/internal/core"
)

var recordMeans = flag.Bool("record-means", false, "rewrite testdata/golden_means.json from the current engine")

// meanSeeds is the number of seeds, 1 to meanSeeds, each golden variant's
// means are taken over.
const meanSeeds = 32

// meansFile holds, per golden variant and class, the mean and standard
// deviation over seeds of the figures classMetrics reads.
var meansFile = filepath.Join("testdata", "golden_means.json")

// meanVariant is one scenario behind a camsim golden output, named after
// the golden and its point.
type meanVariant struct {
	name string
	sc   Scenario
}

// goldenVariants builds, at seed, the 23 scenarios cmd/camsim's golden
// tests print: the fleet sweep at -n 16 (9 points), the three policies
// of topo, topo -depth 3, topo -global and topo -compute, topo -fl, and
// topo -dynamics's scheduled fleet, each with its golden's duration.
func goldenVariants(seed int64) ([]meanVariant, error) {
	var vs []meanVariant
	for _, size := range []int{4, 8, 16} {
		for _, p := range []struct {
			label string
			pl    core.Placement
		}{
			{"S~", core.Placement{}},
			{"SB1B2B3F~", core.Placement{InCamera: 3, Impl: []string{"CPU", "CPU", "FPGA"}}},
			{"SB1B2B3FB4F~", core.Placement{InCamera: 4, Impl: []string{"CPU", "CPU", "FPGA", "FPGA"}}},
		} {
			vr, err := VRClass(size/4, p.pl, 30)
			if err != nil {
				return nil, err
			}
			vs = append(vs, meanVariant{fmt.Sprintf("fleet/n%d/%s", size, p.label), Scenario{
				Seed: seed, Duration: 2,
				Uplink:  UplinkConfig{Gbps: 10, Contention: ContentionFairShare},
				Classes: []Class{FaceAuthClass(size - size/4), vr},
			}})
		}
	}
	demos := []struct {
		golden   string
		duration float64
		modes    []string
		build    func(mode string) (Scenario, error)
	}{
		{"topo", 3, []string{PolicyStatic, PolicyLatencyThreshold, PolicyHysteresis},
			func(m string) (Scenario, error) { return TopologyDemoScenario(seed, m) }},
		{"topo-depth", 3, []string{PolicyStatic, PolicyLatencyThreshold, PolicyHysteresis},
			func(m string) (Scenario, error) { return DeepTopologyScenario(seed, 3, m) }},
		{"topo-global", 6, []string{PolicyStatic, PolicyEnergyLatency, GlobalModeBudget},
			func(m string) (Scenario, error) { return EnergyDemoScenario(seed, m) }},
		{"topo-compute", 6, []string{PolicyStatic, ComputeModeAdaptive, GlobalModeBudget},
			func(m string) (Scenario, error) { return ComputeDemoScenario(seed, m) }},
		{"topo-fl", 8, []string{""},
			func(string) (Scenario, error) { return FederatedDemoScenario(seed), nil }},
		{"topo-dynamics", 8, []string{""},
			func(string) (Scenario, error) { return DynamicsDemoScenario(seed), nil }},
	}
	for _, d := range demos {
		for _, m := range d.modes {
			sc, err := d.build(m)
			if err != nil {
				return nil, err
			}
			sc.Duration = d.duration
			name := d.golden
			if m != "" {
				name += "/" + m
			}
			vs = append(vs, meanVariant{name, sc})
		}
	}
	return vs, nil
}

// classMetrics names the per-class figures whose means are recorded:
// frames captured, offloaded and dropped (every cause), and the p50 and
// p95 offload latency.
var classMetrics = [...]string{"captured", "offloaded", "dropped", "p50", "p95"}

func classFigures(s ClassStats) [len(classMetrics)]float64 {
	return [...]float64{
		float64(s.Captured), float64(s.Offloaded),
		float64(s.DroppedQueue + s.DroppedEnergy + s.DroppedOutage),
		s.LatencyP50, s.LatencyP95,
	}
}

// recordedMean is one figure's mean and standard deviation over seeds.
type recordedMean struct {
	Variant string  `json:"variant"`
	Class   string  `json:"class"`
	Metric  string  `json:"metric"`
	Mean    float64 `json:"mean"`
	SD      float64 `json:"sd"`
}

// goldenMeans runs every golden variant at seeds 1 to meanSeeds and
// returns each class figure's mean and sample standard deviation.
func goldenMeans(t *testing.T) []recordedMean {
	t.Helper()
	var out []recordedMean
	var sum, sumSq [][len(classMetrics)]float64
	for seed := int64(1); seed <= meanSeeds; seed++ {
		vs, err := goldenVariants(seed)
		if err != nil {
			t.Fatal(err)
		}
		if sum == nil {
			for _, v := range vs {
				for _, c := range v.sc.Classes {
					out = append(out, recordedMean{Variant: v.name, Class: c.Name})
				}
			}
			sum = make([][len(classMetrics)]float64, len(out))
			sumSq = make([][len(classMetrics)]float64, len(out))
		}
		k := 0
		for _, v := range vs {
			res, err := Run(v.sc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", v.name, seed, err)
			}
			for _, cs := range res.Classes {
				for m, x := range classFigures(cs) {
					sum[k][m] += x
					sumSq[k][m] += x * x
				}
				k++
			}
		}
	}
	var flat []recordedMean
	const n = meanSeeds
	for k, r := range out {
		for m, name := range classMetrics {
			mean := sum[k][m] / n
			r.Metric, r.Mean, r.SD = name, mean, math.Sqrt(max(sumSq[k][m]-n*mean*mean, 0)/(n-1))
			flat = append(flat, r)
		}
	}
	return flat
}

// TestGoldenMeansHold holds every class figure of the golden variants,
// averaged over seeds 1 to 32, within 4 combined standard errors,
// √(s_r²/32 + s_c²/32), of the means recorded in testdata: a change that
// keeps the model the same in distribution but moves its draws, such as
// the per-class Poisson arrival streams, re-records the goldens but must
// pass here. A figure with no spread on either side must match exactly.
// Re-record with -record-means only for a change meant to move the
// model itself.
func TestGoldenMeansHold(t *testing.T) {
	got := goldenMeans(t)
	if *recordMeans {
		// One figure a line, so a re-record diffs figure by figure.
		data := []byte("[\n")
		for i, r := range got {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				data = append(data, ",\n"...)
			}
			data = append(data, line...)
		}
		if err := os.WriteFile(meansFile, append(data, "\n]\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(meansFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []recordedMean
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d recorded figures, %d measured", len(want), len(got))
	}
	worst, at := 0.0, ""
	for i, w := range want {
		g := got[i]
		if g.Variant != w.Variant || g.Class != w.Class || g.Metric != w.Metric {
			t.Fatalf("figure %d is %s %s %s, recorded as %s %s %s", i, g.Variant, g.Class, g.Metric, w.Variant, w.Class, w.Metric)
		}
		se := math.Sqrt((w.SD*w.SD + g.SD*g.SD) / meanSeeds)
		z := 0.0
		if d := g.Mean - w.Mean; d != 0 {
			z = math.Inf(int(math.Copysign(1, d)))
			if se > 0 {
				z = d / se
			}
		}
		if math.Abs(z) > math.Abs(worst) {
			worst, at = z, fmt.Sprintf("%s %s %s", g.Variant, g.Class, g.Metric)
		}
		if math.Abs(z) > 4 {
			t.Errorf("%s %s %s: mean %.6g, recorded %.6g (z %.2f)", g.Variant, g.Class, g.Metric, g.Mean, w.Mean, z)
		}
	}
	t.Logf("%d figures; largest |z| %.2f (%s)", len(got), math.Abs(worst), at)
}
