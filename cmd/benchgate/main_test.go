package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: camsim/internal/fleet
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkDeepTopology/indexed-8         	       3	 104232684 ns/op	 79731 frames/run	 5801064 B/op	 384 allocs/op
BenchmarkDeepTopology/indexed-8         	       3	 106627184 ns/op	 79731 frames/run	 5801144 B/op	 385 allocs/op
BenchmarkDeepTopology/indexed-8         	       3	 105211636 ns/op	 79731 frames/run	 5801144 B/op	 385 allocs/op
BenchmarkDeepTopology/scan-8            	       3	 190398320 ns/op	 79731 frames/run	 5800352 B/op	 379 allocs/op
BenchmarkDeepTopology/scan-8            	       3	 204509789 ns/op	 79731 frames/run	 5800432 B/op	 380 allocs/op
BenchmarkHugeFleet-8                    	       3	 474008193 ns/op	 200475 frames/run	 31441466 B/op	 483 allocs/op
BenchmarkHugeFleet-8                    	       3	 505142807 ns/op	 200475 frames/run	 31441552 B/op	 484 allocs/op
PASS
`

func allocs(v float64) *float64 { return &v }

func testBaseline() baselineFile {
	return baselineFile{
		Benchmarks: map[string]baselineBench{
			"BenchmarkDeepTopology": {Results: map[string]baselineResult{
				"indexed": {NsPerOp: 104232684, BPerOp: 5801064, AllocsPerOp: allocs(384)},
				"scan":    {NsPerOp: 190398320, BPerOp: 5800352, AllocsPerOp: allocs(379)},
			}},
			"BenchmarkHugeFleet": {Results: map[string]baselineResult{
				"": {NsPerOp: 474008193, BPerOp: 31441466, AllocsPerOp: allocs(483)},
			}},
		},
	}
}

func parseSample(t *testing.T) map[string]map[string]measurement {
	t.Helper()
	got, err := parseBench(strings.NewReader(sampleBench),
		[]string{"BenchmarkDeepTopology", "BenchmarkHugeFleet"})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseBenchTakesBestPerVariant(t *testing.T) {
	got := parseSample(t)
	if len(got) != 2 || len(got["BenchmarkDeepTopology"]) != 2 {
		t.Fatalf("benchmarks parsed: %v", got)
	}
	idx := got["BenchmarkDeepTopology"]["indexed"]
	if idx.nsPerOp != 104232684 {
		t.Fatalf("indexed best %v, want the minimum across -count runs", idx.nsPerOp)
	}
	if !idx.hasAllocs || idx.allocsPerOp != 384 || idx.bPerOp != 5801064 {
		t.Fatalf("indexed alloc metrics not the per-metric minimum: %+v", idx)
	}
	if got["BenchmarkDeepTopology"]["scan"].nsPerOp != 190398320 {
		t.Fatalf("scan best %v", got["BenchmarkDeepTopology"]["scan"].nsPerOp)
	}
	// A benchmark with no sub-benchmarks lands under the "" variant.
	huge := got["BenchmarkHugeFleet"][""]
	if huge.nsPerOp != 474008193 || huge.allocsPerOp != 483 {
		t.Fatalf("HugeFleet measurement: %+v", huge)
	}
}

func TestGatePassesWithinLimit(t *testing.T) {
	base := testBaseline()
	measured := parseSample(t)
	for name, bench := range base.Benchmarks {
		report, err := gate(name, bench, measured[name], 0.30)
		if err != nil {
			t.Fatalf("%s: within-limit run failed: %v\n%v", name, err, report)
		}
		// One line each for ns/op, allocs/op and B/op per variant.
		if len(report) != 3*len(bench.Results) {
			t.Fatalf("%s report: %v", name, report)
		}
	}
}

func TestGateFailsOnNsRegression(t *testing.T) {
	base := testBaseline().Benchmarks["BenchmarkDeepTopology"]
	measured := map[string]measurement{
		"indexed": {nsPerOp: 104232684 * 1.5, allocsPerOp: 384, hasAllocs: true},
		"scan":    {nsPerOp: 190398320, allocsPerOp: 379, hasAllocs: true},
	}
	if _, err := gate("BenchmarkDeepTopology", base, measured, 0.30); err == nil {
		t.Fatal("a 1.5x regression passed the 30% gate")
	} else if !strings.Contains(err.Error(), "indexed") {
		t.Fatalf("regression error does not name the variant: %v", err)
	}
}

func TestGateFailsOnAllocsRegression(t *testing.T) {
	base := testBaseline().Benchmarks["BenchmarkDeepTopology"]
	measured := map[string]measurement{
		"indexed": {nsPerOp: 104232684, bPerOp: 5801064, allocsPerOp: 384 * 2, hasAllocs: true},
		"scan":    {nsPerOp: 190398320, bPerOp: 5800352, allocsPerOp: 379, hasAllocs: true},
	}
	if _, err := gate("BenchmarkDeepTopology", base, measured, 0.30); err == nil {
		t.Fatal("a 2x allocs/op regression passed the 30% gate")
	} else if !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("allocs regression error not named: %v", err)
	}
}

func TestGateFailsOnBytesRegression(t *testing.T) {
	// Same allocation count, 10x the bytes: the size blowup must fail on
	// its own.
	base := testBaseline().Benchmarks["BenchmarkDeepTopology"]
	measured := map[string]measurement{
		"indexed": {nsPerOp: 104232684, bPerOp: 5801064 * 10, allocsPerOp: 384, hasAllocs: true},
		"scan":    {nsPerOp: 190398320, bPerOp: 5800352, allocsPerOp: 379, hasAllocs: true},
	}
	if _, err := gate("BenchmarkDeepTopology", base, measured, 0.30); err == nil {
		t.Fatal("a 10x B/op regression passed the 30% gate")
	} else if !strings.Contains(err.Error(), "B/op") {
		t.Fatalf("bytes regression error not named: %v", err)
	}
}

func TestGateToleratesBaselineWithoutAllocs(t *testing.T) {
	// A baseline recorded before alloc tracking gates on ns/op alone,
	// whatever the measured allocation count says.
	base := baselineBench{Results: map[string]baselineResult{
		"indexed": {NsPerOp: 100},
	}}
	measured := map[string]measurement{
		"indexed": {nsPerOp: 101, allocsPerOp: 1e9, hasAllocs: true},
	}
	report, err := gate("BenchmarkX", base, measured, 0.30)
	if err != nil {
		t.Fatalf("alloc-less baseline failed the gate: %v", err)
	}
	if len(report) != 1 {
		t.Fatalf("expected the single ns/op line, got %v", report)
	}
}

func TestGateFailsWhenAllocsExpectedButUnmeasured(t *testing.T) {
	base := baselineBench{Results: map[string]baselineResult{
		"indexed": {NsPerOp: 100, AllocsPerOp: allocs(10)},
	}}
	measured := map[string]measurement{"indexed": {nsPerOp: 100}}
	if _, err := gate("BenchmarkX", base, measured, 0.30); err == nil {
		t.Fatal("missing alloc measurement passed a baseline that records allocs")
	}
}

func TestParseBenchKeepsHyphenatedVariants(t *testing.T) {
	// Only a trailing -GOMAXPROCS suffix is stripped; at GOMAXPROCS=1 go
	// test appends none, and hyphens inside a variant name must survive.
	out := "BenchmarkX/in-camera-8   1   100 ns/op\nBenchmarkX/in-camera   1   90 ns/op\n"
	got, err := parseBench(strings.NewReader(out), []string{"BenchmarkX"})
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkX"]["in-camera"].nsPerOp != 90 {
		t.Fatalf("hyphenated variant mangled: %v", got)
	}
}

func TestParseBenchPrefersLongestBenchmarkName(t *testing.T) {
	// With overlapping configured names, a line must land under the most
	// specific one, and a bare prefix must not claim a longer benchmark's
	// lines at a non-boundary.
	out := "BenchmarkHugeFleet-8   1   100 ns/op\nBenchmarkHuge-8   1   50 ns/op\n"
	got, err := parseBench(strings.NewReader(out), []string{"BenchmarkHuge", "BenchmarkHugeFleet"})
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkHugeFleet"][""].nsPerOp != 100 || got["BenchmarkHuge"][""].nsPerOp != 50 {
		t.Fatalf("prefix collision: %v", got)
	}
}

func TestGateFailsOnMissingVariant(t *testing.T) {
	base := testBaseline().Benchmarks["BenchmarkDeepTopology"]
	measured := map[string]measurement{"indexed": {nsPerOp: 1, allocsPerOp: 1, hasAllocs: true}}
	if _, err := gate("BenchmarkDeepTopology", base, measured, 0.30); err == nil {
		t.Fatal("missing scan variant passed the gate")
	}
}

// writeUpdateFixture lays out a baseline and bench output in a temp dir
// and pins the recorded date, returning the two paths.
func writeUpdateFixture(t *testing.T, baseline, bench string) (string, string) {
	t.Helper()
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.json")
	benchPath := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(basePath, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchPath, []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	old := timeNow
	timeNow = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	t.Cleanup(func() { timeNow = old })
	return benchPath, basePath
}

func TestUpdateRewritesMetricsAndKeepsProse(t *testing.T) {
	const baseline = `{
	  "package": "camsim/internal/fleet",
	  "recorded": "2026-07-29",
	  "benchmarks": {
	    "BenchmarkDeepTopology": {
	      "scenario": {"cameras": 10000},
	      "results": {
	        "indexed": {"description": "production path", "ns_per_op": 110000000, "b_per_op": 2, "allocs_per_op": 3},
	        "scan": {"description": "baseline path", "ns_per_op": 210000000, "b_per_op": 5, "allocs_per_op": 6}
	      }
	    }
	  },
	  "notes": "hand-written context"
	}`
	benchPath, basePath := writeUpdateFixture(t, baseline, sampleBench)
	var out strings.Builder
	if err := updateBaseline(benchPath, basePath, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("rewritten baseline is not valid JSON: %v", err)
	}
	if doc["recorded"] != "2026-08-08" {
		t.Fatalf("recorded = %v", doc["recorded"])
	}
	if doc["notes"] != "hand-written context" || doc["package"] != "camsim/internal/fleet" {
		t.Fatal("human-facing fields not preserved")
	}
	var typed baselineFile
	if err := json.Unmarshal(raw, &typed); err != nil {
		t.Fatal(err)
	}
	idx := typed.Benchmarks["BenchmarkDeepTopology"].Results["indexed"]
	if idx.NsPerOp != 110000000 || idx.BPerOp != 5801064 || *idx.AllocsPerOp != 384 {
		t.Fatalf("indexed allocation not refreshed to the run's best, or its timing moved: %+v", idx)
	}
	entry := doc["benchmarks"].(map[string]any)["BenchmarkDeepTopology"].(map[string]any)
	if entry["scenario"].(map[string]any)["cameras"].(float64) != 10000 {
		t.Fatal("scenario context dropped")
	}
	res := entry["results"].(map[string]any)["indexed"].(map[string]any)
	if res["description"] != "production path" {
		t.Fatal("variant description dropped")
	}
	if !strings.Contains(out.String(), "BenchmarkDeepTopology/indexed") {
		t.Fatalf("update not reported: %s", out.String())
	}
	// The rewritten file must still pass its own gate against the same run.
	var gateOut strings.Builder
	if err := run(benchPath, basePath, 0.0, &gateOut); err != nil {
		t.Fatalf("freshly updated baseline fails its own gate: %v\n%s", err, gateOut.String())
	}
}

func TestUpdateFillsSkeletonBenchmark(t *testing.T) {
	// A new benchmark lands by writing a results-free skeleton and letting
	// -update fill the numbers from the run.
	const baseline = `{
	  "recorded": "2026-07-29",
	  "benchmarks": {
	    "BenchmarkHugeFleet": {
	      "scenario": {"cameras": 100000},
	      "results": {}
	    }
	  }
	}`
	benchPath, basePath := writeUpdateFixture(t, baseline, sampleBench)
	if err := updateBaseline(benchPath, basePath, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(basePath)
	var typed baselineFile
	if err := json.Unmarshal(raw, &typed); err != nil {
		t.Fatal(err)
	}
	huge := typed.Benchmarks["BenchmarkHugeFleet"].Results[""]
	if huge.NsPerOp != 474008193 || *huge.AllocsPerOp != 483 {
		t.Fatalf("skeleton not filled: %+v", huge)
	}
}

// TestUpdateKeepsRecordedTiming pins what -update may move: a recorded
// variant keeps its ns_per_op whatever the run measured, faster or
// slower, while its B/op and allocs/op follow the run; a variant that
// records no ns_per_op yet takes the run's.
func TestUpdateKeepsRecordedTiming(t *testing.T) {
	const baseline = `{
	  "benchmarks": {
	    "BenchmarkDeepTopology": {
	      "results": {
	        "indexed": {"ns_per_op": 90000000, "b_per_op": 1, "allocs_per_op": 1},
	        "scan": {"description": "untimed", "b_per_op": 1, "allocs_per_op": 1}
	      }
	    },
	    "BenchmarkHugeFleet": {"results": {"": {"ns_per_op": 600000000}}}
	  }
	}`
	benchPath, basePath := writeUpdateFixture(t, baseline, sampleBench)
	var out strings.Builder
	if err := updateBaseline(benchPath, basePath, &out); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(basePath)
	var typed baselineFile
	if err := json.Unmarshal(raw, &typed); err != nil {
		t.Fatal(err)
	}
	deep, huge := typed.Benchmarks["BenchmarkDeepTopology"].Results, typed.Benchmarks["BenchmarkHugeFleet"].Results[""]
	if idx := deep["indexed"]; idx.NsPerOp != 90000000 || idx.BPerOp != 5801064 || *idx.AllocsPerOp != 384 {
		t.Errorf("indexed: %+v, want ns/op kept at 90000000 and allocation from the run", idx)
	}
	if huge.NsPerOp != 600000000 || huge.BPerOp != 31441466 || *huge.AllocsPerOp != 483 {
		t.Errorf("huge fleet: %+v, want ns/op kept at 600000000 and allocation from the run", huge)
	}
	if scan := deep["scan"]; scan.NsPerOp != 190398320 || *scan.AllocsPerOp != 379 {
		t.Errorf("scan: %+v, want the run's ns/op recorded where none was", scan)
	}
	if !strings.Contains(out.String(), "recorded BenchmarkDeepTopology/scan") || strings.Contains(out.String(), "recorded BenchmarkDeepTopology/indexed") {
		t.Errorf("report does not say which timings were recorded:\n%s", out.String())
	}
}

func TestUpdateKeepsUnmeasuredVariants(t *testing.T) {
	const baseline = `{
	  "benchmarks": {
	    "BenchmarkDeepTopology": {
	      "results": {"indexed": {"ns_per_op": 7}, "ghost": {"ns_per_op": 42}}
	    }
	  }
	}`
	benchPath, basePath := writeUpdateFixture(t, baseline, sampleBench)
	var out strings.Builder
	if err := updateBaseline(benchPath, basePath, &out); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(basePath)
	var typed baselineFile
	if err := json.Unmarshal(raw, &typed); err != nil {
		t.Fatal(err)
	}
	if got := typed.Benchmarks["BenchmarkDeepTopology"].Results["ghost"].NsPerOp; got != 42 {
		t.Fatalf("unmeasured variant rewritten to %v", got)
	}
	if !strings.Contains(out.String(), "ghost") || !strings.Contains(out.String(), "keeping old numbers") {
		t.Fatalf("missing-variant warning not printed: %s", out.String())
	}
}

// TestLegacySingleBenchmarkBaselineRejected: a baseline in the retired
// single-benchmark layout ("benchmark" + "results" at top level) carries
// no "benchmarks" map, so both the gate and -update refuse it rather than
// passing on an empty comparison.
func TestLegacySingleBenchmarkBaselineRejected(t *testing.T) {
	const baseline = `{
	  "benchmark": "BenchmarkHugeFleet",
	  "results": {"": {"ns_per_op": 1, "b_per_op": 1, "allocs_per_op": 1}}
	}`
	benchPath, basePath := writeUpdateFixture(t, baseline, sampleBench)
	if err := run(benchPath, basePath, 0.30, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "carries no baseline results") {
		t.Fatalf("gate on a legacy baseline: err = %v", err)
	}
	if err := updateBaseline(benchPath, basePath, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "carries no baseline results") {
		t.Fatalf("-update on a legacy baseline: err = %v", err)
	}
	if raw, _ := os.ReadFile(basePath); string(raw) != baseline {
		t.Fatalf("rejected baseline was rewritten:\n%s", raw)
	}
}
