// Command benchgate is the CI bench-regression gate: it parses `go test
// -bench` output, compares each variant's best ns/op — and, where the
// baseline records them, allocs/op — against the recorded baseline in
// BENCH_topology.json, and exits non-zero when any variant regressed by
// more than the allowed fraction.
//
// Usage:
//
//	go test -run='^$' -bench 'BenchmarkDeepTopology|BenchmarkHugeFleet' \
//	    -benchtime=3x -count=3 ./internal/fleet | tee bench.out
//	go run ./cmd/benchgate -bench bench.out -baseline BENCH_topology.json
//
// The best (minimum) value across the -count repetitions is compared, not
// the mean: CI runners are noisy upward — a process getting descheduled
// slows an iteration, nothing speeds one up — so the minimum is the
// lowest-noise estimate of the true cost. The same logic covers the alloc
// counters (allocations only spuriously go up, e.g. via testing overhead
// on a short run).
//
// The baseline file carries a "benchmarks" map keyed by benchmark name.
// Baseline entries without alloc fields gate on ns/op alone, so
// re-recording allocations is opt-in per benchmark.
//
// With -update the gate runs in reverse: the bench output's best B/op and
// allocs/op are written back into the baseline file, the "recorded" date
// is stamped, and every hand-written field — descriptions, scenario
// shapes, history, notes — is preserved. A variant's ns/op is written
// only when the baseline records none for it yet: allocation repeats run
// to run, but one host's best of three times does not, so re-recording an
// allocation change must not re-baseline timing. Re-baselining ns/op is a
// hand edit of the file. A new benchmark lands by adding a skeleton entry
// with an empty "results" object and running -update.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// baselineFile mirrors the BENCH_topology.json schema (the fields the
// gate needs; the file carries more context for humans).
type baselineFile struct {
	Benchmarks map[string]baselineBench `json:"benchmarks,omitempty"`
}

type baselineBench struct {
	Results map[string]baselineResult `json:"results"`
}

// baselineResult is one variant's recorded cost. AllocsPerOp is a pointer
// so a baseline recorded before alloc tracking simply lacks the field and
// is gated on time alone.
type baselineResult struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BPerOp      float64  `json:"b_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// measurement is one variant's best observed cost across repetitions.
// The alloc fields are only meaningful when hasAllocs is set (the
// benchmark ran with b.ReportAllocs() or -benchmem).
type measurement struct {
	nsPerOp     float64
	bPerOp      float64
	allocsPerOp float64
	hasAllocs   bool
}

// metric extracts the value labelled unit from a benchmark output line's
// fields ("376112306 ns/op" → 376112306), or ok=false.
func metric(fields []string, unit string) (float64, bool, error) {
	for i := 2; i < len(fields); i++ {
		if fields[i] == unit {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return 0, false, fmt.Errorf("benchgate: bad %s in %q: %w", unit, strings.Join(fields, " "), err)
			}
			return v, true, nil
		}
	}
	return 0, false, nil
}

// splitVariant matches a benchmark-output name (fields[0]) against the
// configured benchmark names, longest name first, and returns the
// matched benchmark and the variant: the path segment after the name,
// with the trailing -GOMAXPROCS suffix stripped. A benchmark with no
// sub-benchmarks gets the variant "".
func splitVariant(name string, benchmarks []string) (string, string, bool) {
	for _, bench := range benchmarks {
		if !strings.HasPrefix(name, bench) {
			continue
		}
		variant := strings.TrimPrefix(name, bench)
		// The name must end exactly at a boundary: a sub-benchmark slash,
		// a -GOMAXPROCS suffix, or the end — "BenchmarkHuge" must not
		// claim "BenchmarkHugeFleet" lines.
		if variant != "" && variant[0] != '/' && variant[0] != '-' {
			continue
		}
		variant = strings.TrimPrefix(variant, "/")
		// Strip only a trailing -GOMAXPROCS suffix (absent at
		// GOMAXPROCS=1): a hyphen inside the variant name itself must
		// survive.
		if i := strings.LastIndex(variant, "-"); i >= 0 && i < len(variant)-1 {
			if _, err := strconv.Atoi(variant[i+1:]); err == nil {
				variant = variant[:i]
			}
		}
		return bench, variant, true
	}
	return "", "", false
}

// parseBench extracts per-benchmark, per-variant best measurements from
// `go test -bench` output. A line looks like:
//
//	BenchmarkDeepTopology/indexed-8   3   376112306 ns/op   5801064 B/op   384 allocs/op
//
// Each metric takes its minimum across repetitions independently.
func parseBench(r io.Reader, benchmarks []string) (map[string]map[string]measurement, error) {
	// Longest benchmark name first so the most specific prefix wins.
	ordered := append([]string(nil), benchmarks...)
	sort.Slice(ordered, func(i, j int) bool { return len(ordered[i]) > len(ordered[j]) })
	best := map[string]map[string]measurement{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 {
			continue
		}
		bench, variant, ok := splitVariant(fields[0], ordered)
		if !ok {
			continue
		}
		ns, ok, err := metric(fields, "ns/op")
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		bytesOp, _, err := metric(fields, "B/op")
		if err != nil {
			return nil, err
		}
		allocs, hasAllocs, err := metric(fields, "allocs/op")
		if err != nil {
			return nil, err
		}
		if best[bench] == nil {
			best[bench] = map[string]measurement{}
		}
		cur, seen := best[bench][variant]
		if !seen {
			best[bench][variant] = measurement{nsPerOp: ns, bPerOp: bytesOp, allocsPerOp: allocs, hasAllocs: hasAllocs}
			continue
		}
		if ns < cur.nsPerOp {
			cur.nsPerOp = ns
		}
		if hasAllocs {
			if !cur.hasAllocs || allocs < cur.allocsPerOp {
				cur.allocsPerOp = allocs
			}
			if !cur.hasAllocs || bytesOp < cur.bPerOp {
				cur.bPerOp = bytesOp
			}
			cur.hasAllocs = true
		}
		best[bench][variant] = cur
	}
	return best, sc.Err()
}

// gate compares one benchmark's measured variants against its baseline
// and returns one line per gated metric plus an error naming every
// regression beyond maxRegress (a fraction: 0.30 allows +30%).
func gate(bench string, baseline baselineBench, measured map[string]measurement, maxRegress float64) ([]string, error) {
	variants := make([]string, 0, len(baseline.Results))
	for v := range baseline.Results {
		variants = append(variants, v)
	}
	sort.Strings(variants)
	var report []string
	var failures []string
	label := func(variant string) string {
		if variant == "" {
			return bench
		}
		return bench + "/" + variant
	}
	for _, variant := range variants {
		base := baseline.Results[variant]
		got, ok := measured[variant]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: not measured", label(variant)))
			continue
		}
		ratio := got.nsPerOp / base.NsPerOp
		line := fmt.Sprintf("%-34s baseline %12.0f ns/op  measured %12.0f ns/op  ratio %.2fx (limit %.2fx)",
			label(variant), base.NsPerOp, got.nsPerOp, ratio, 1+maxRegress)
		report = append(report, line)
		if ratio > 1+maxRegress {
			failures = append(failures, fmt.Sprintf("%s: %.2fx over baseline (limit %.2fx)",
				label(variant), ratio, 1+maxRegress))
		}
		if base.AllocsPerOp == nil {
			continue
		}
		if !got.hasAllocs {
			failures = append(failures, fmt.Sprintf("%s: allocs/op not measured (baseline records %.0f)",
				label(variant), *base.AllocsPerOp))
			continue
		}
		aratio := got.allocsPerOp / *base.AllocsPerOp
		report = append(report, fmt.Sprintf("%-34s baseline %12.0f allocs/op  measured %9.0f allocs/op  ratio %.2fx (limit %.2fx)",
			label(variant), *base.AllocsPerOp, got.allocsPerOp, aratio, 1+maxRegress))
		if aratio > 1+maxRegress {
			failures = append(failures, fmt.Sprintf("%s: %.2fx allocs/op over baseline (limit %.2fx)",
				label(variant), aratio, 1+maxRegress))
		}
		// B/op rides the same opt-in: recorded bytes are gated too, so an
		// allocation-count-neutral size blowup cannot slip through.
		if base.BPerOp <= 0 {
			continue
		}
		bratio := got.bPerOp / base.BPerOp
		report = append(report, fmt.Sprintf("%-34s baseline %12.0f B/op       measured %9.0f B/op       ratio %.2fx (limit %.2fx)",
			label(variant), base.BPerOp, got.bPerOp, bratio, 1+maxRegress))
		if bratio > 1+maxRegress {
			failures = append(failures, fmt.Sprintf("%s: %.2fx B/op over baseline (limit %.2fx)",
				label(variant), bratio, 1+maxRegress))
		}
	}
	if len(failures) > 0 {
		return report, fmt.Errorf("bench regression: %s", strings.Join(failures, "; "))
	}
	return report, nil
}

// timeNow stamps the "recorded" field on -update; a variable so tests can
// pin the date.
var timeNow = time.Now

// updateBaseline rewrites the measured metrics in the baseline file from a
// fresh `go test -bench` run: every measured variant's b_per_op and
// allocs_per_op, when the run reports them, are replaced by the run's
// best (minimum) value, and its ns_per_op is written only when the
// variant records none; the top-level "recorded" date is stamped, and
// every human-facing field (descriptions, scenario shapes, history,
// notes) is carried through untouched. Variants measured in the run but
// absent from a recorded benchmark's results are added bare, so a new
// benchmark lands by writing a skeleton entry and running -update.
// Recorded variants the run did not measure keep their old numbers, with
// a warning — refreshing a subset is legitimate (a narrower -bench regex),
// silently aging the rest is not.
func updateBaseline(benchPath, baselinePath string, out io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	// The generic document keeps every field the gate's typed view ignores;
	// json.Number keeps the untouched metrics byte-exact.
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("benchgate: %s: %w", baselinePath, err)
	}
	var baseline baselineFile
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("benchgate: %s: %w", baselinePath, err)
	}
	benches := baseline.Benchmarks
	if len(benches) == 0 {
		return fmt.Errorf("benchgate: %s carries no baseline results", baselinePath)
	}
	names := make([]string, 0, len(benches))
	for name := range benches {
		names = append(names, name)
	}
	sort.Strings(names)
	f, err := os.Open(benchPath)
	if err != nil {
		return err
	}
	measured, err := parseBench(f, names)
	f.Close()
	if err != nil {
		return err
	}

	// results locates one benchmark's results object inside the generic
	// document.
	results := func(bench string) map[string]any {
		all, _ := doc["benchmarks"].(map[string]any)
		entry, ok := all[bench].(map[string]any)
		if !ok {
			return nil
		}
		res, ok := entry["results"].(map[string]any)
		if !ok {
			res = map[string]any{}
			entry["results"] = res
		}
		return res
	}
	num := func(v float64) json.Number {
		return json.Number(strconv.FormatFloat(v, 'f', -1, 64))
	}
	for _, bench := range names {
		res := results(bench)
		if res == nil {
			return fmt.Errorf("benchgate: %s: cannot locate results for %s", baselinePath, bench)
		}
		variants := make([]string, 0, len(measured[bench]))
		for v := range measured[bench] {
			variants = append(variants, v)
		}
		sort.Strings(variants)
		for _, variant := range variants {
			got := measured[bench][variant]
			entry, ok := res[variant].(map[string]any)
			if !ok {
				entry = map[string]any{}
				res[variant] = entry
			}
			label := bench
			if variant != "" {
				label += "/" + variant
			}
			if _, timed := entry["ns_per_op"]; !timed {
				entry["ns_per_op"] = num(got.nsPerOp)
				fmt.Fprintf(out, "benchgate: recorded %-34s %12.0f ns/op\n", label, got.nsPerOp)
			}
			if got.hasAllocs {
				entry["b_per_op"] = num(got.bPerOp)
				entry["allocs_per_op"] = num(got.allocsPerOp)
				fmt.Fprintf(out, "benchgate: updated %-34s %12.0f B/op %9.0f allocs/op\n", label, got.bPerOp, got.allocsPerOp)
			}
		}
		for variant := range benches[bench].Results {
			if _, ok := measured[bench][variant]; !ok {
				fmt.Fprintf(out, "benchgate: warning: %s/%s not in %s, keeping old numbers\n",
					bench, variant, benchPath)
			}
		}
	}
	if _, ok := doc["recorded"]; ok {
		doc["recorded"] = timeNow().Format("2006-01-02")
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(baselinePath, append(buf, '\n'), 0o644)
}

func run(benchPath, baselinePath string, maxRegress float64, out io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var baseline baselineFile
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("benchgate: %s: %w", baselinePath, err)
	}
	benches := baseline.Benchmarks
	if len(benches) == 0 {
		return fmt.Errorf("benchgate: %s carries no baseline results", baselinePath)
	}
	names := make([]string, 0, len(benches))
	for name := range benches {
		names = append(names, name)
	}
	sort.Strings(names)
	f, err := os.Open(benchPath)
	if err != nil {
		return err
	}
	defer f.Close()
	measured, err := parseBench(f, names)
	if err != nil {
		return err
	}
	var gateErrs []string
	for _, name := range names {
		report, err := gate(name, benches[name], measured[name], maxRegress)
		fmt.Fprintf(out, "benchgate: %s vs %s\n", name, baselinePath)
		for _, line := range report {
			fmt.Fprintln(out, "  "+line)
		}
		if err != nil {
			gateErrs = append(gateErrs, err.Error())
		}
	}
	if len(gateErrs) > 0 {
		return fmt.Errorf("%s", strings.Join(gateErrs, "; "))
	}
	return nil
}

func main() {
	bench := flag.String("bench", "bench.out", "go test -bench output to check")
	baseline := flag.String("baseline", "BENCH_topology.json", "recorded baseline JSON")
	maxRegress := flag.Float64("max-regress", 0.30, "allowed regression fraction over baseline (ns/op, and allocs/op + B/op where recorded)")
	doUpdate := flag.Bool("update", false, "rewrite the baseline's measured metrics from the bench output instead of gating")
	flag.Parse()
	if *doUpdate {
		if err := updateBaseline(*bench, *baseline, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := run(*bench, *baseline, *maxRegress, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
