// Command benchjson is the repo's performance-trajectory harness: it
// runs the root package's benchmark suite (simulator throughput, the
// core model alone, observability overhead, oracle headroom, trace generation and codec),
// parses the `go test -bench` text into a machine-readable document, and
// gates regressions against a committed snapshot.
//
//   - -record writes the snapshot (BENCH_PR6.json by convention),
//     preserving any pre_pr5_baseline and prior_baselines sections
//     already in the file so the before/after story survives re-records;
//     -pre imports a raw `go test -bench` capture as the pre-optimization
//     section, and -prior name=path folds an earlier snapshot's
//     benchmarks in under prior_baselines (e.g. -prior
//     pr5=BENCH_PR5.json keeps the PR5 trajectory in the PR6 file).
//   - -compare re-runs the suite and fails when a benchmark disappears,
//     when any instr/s figure drops more than -threshold percent after
//     machine-speed normalization (see below), or when allocs/op grows
//     more than -alloc-threshold percent (allocations are deterministic,
//     so this catches reintroduced per-access allocation immediately).
//     Wall-clock-only figures (ns/op, MB/s) are reported but not gated:
//     on a shared machine they are too noisy for a hard 5% gate.
//     It also enforces one relational gate: BenchmarkTracingV2/v2 must
//     stay within 2x the allocs/op of BenchmarkTracingV2/off — the
//     mlpcache.events/v2 tracer's allocation-parity contract
//     (docs/PERFORMANCE.md) — so a regression in the binary encoder's
//     zero-alloc Emit path fails the gate even if a snapshot is
//     re-recorded around it.
//
// Machine-speed normalization: this repo benchmarks on virtualized,
// often single-vCPU hosts where steal time moves every wall-clock
// figure at once, by far more than any fixed gate. A host slowdown is
// uniform across the suite; a code regression is not (the suite spans
// disjoint subsystems: trace codec, generators, oracle replay, the
// full simulator). -compare therefore computes the suite-wide median
// of per-benchmark instr/s ratios (current/baseline, clamped at 1.0)
// and gates each benchmark's drop relative to that median. Even after
// normalization, single-iteration samples on such hosts scatter by a
// few percent per benchmark, so the default gate is a coarse 10%
// tripwire — tight enough to catch a lost fast path, loose enough not
// to fire on steal. The precise gates are the allocation ones: a
// regression slowing every subsystem by the same factor (the
// normalizer's deliberate blind spot) or a fine per-op cost creep is
// caught by the absolute allocs/op gates, which are deterministic and
// never normalized.
//
// Each sample is the best of -count full passes over the suite (N
// separate `go test` invocations, not `go test -count N`): spreading a
// benchmark's repetitions across the whole run means a transient slow
// window costs at most one pass of each benchmark instead of every
// repetition of whichever benchmark it lands on, so the best-of maxima
// all come from low-steal windows and ratios between them stay stable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchPattern selects the perf-trajectory suite; bench-smoke separately
// guards that the observability and oracle benchmarks keep existing.
const benchPattern = "BenchmarkSimulatorThroughput|BenchmarkCPUIssue|BenchmarkMulticoreThroughput|BenchmarkArenaReuse|BenchmarkObservability|BenchmarkTracingV2|BenchmarkLearnedEviction|BenchmarkOracleHeadroom|BenchmarkGeneratorThroughput|BenchmarkTraceEncode|BenchmarkServiceThroughput"

// The relational allocation gate: v2-traced runs must stay within this
// factor of the untraced run's allocs/op (the binary tracer's Emit path
// is allocation-free at steady state, so the two should be near parity).
const (
	tracingOffBench = "BenchmarkTracingV2/off"
	tracingV2Bench  = "BenchmarkTracingV2/v2"
	tracingV2Factor = 2.0
)

// The learned-policy allocation gate (docs/LEARNED.md): the bandit and
// predictor victim paths rank on the shared scratch, so their runs'
// allocs/op must stay within this factor of the LRU baseline's.
const (
	learnedLRUBench     = "BenchmarkLearnedEviction/lru"
	learnedBanditBench  = "BenchmarkLearnedEviction/bandit"
	learnedPredBench    = "BenchmarkLearnedEviction/learned"
	learnedAllocsFactor = 1.5
)

// The arena gate: a run drawing caches, MSHR files, core models and
// blockmap tables from a warmed arena must allocate at most this
// fraction of a cold run's allocs/op. Allocation counts are
// deterministic, so the factor gates without a noise margin.
const (
	arenaColdBench    = "BenchmarkArenaReuse/cold"
	arenaReusedBench  = "BenchmarkArenaReuse/reused"
	arenaAllocsFactor = 0.5
)

// Sample is one benchmark's aggregated figures. Only the units the
// suite emits are modeled; absent figures are zero and omitted.
type Sample struct {
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	InstrPerSec float64 `json:"instr_per_s,omitempty"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// CPUs is the host's CPU count as a benchmark reported it. No
	// current benchmark emits it; the field keeps older snapshots'
	// figures intact when they are folded into prior_baselines.
	CPUs float64 `json:"cpus,omitempty"`
}

// Snapshot is the committed document.
type Snapshot struct {
	Schema    string            `json:"schema"`
	Go        string            `json:"go"`
	Note      string            `json:"note,omitempty"`
	Count     int               `json:"count"`
	Benchtime string            `json:"benchtime"`
	PreBase   map[string]Sample `json:"pre_pr5_baseline,omitempty"`
	// Prior holds earlier snapshots' benchmark sections keyed by a short
	// label (-prior pr5=BENCH_PR5.json), preserving the cross-PR
	// trajectory inside the current file. Informational, never gated.
	Prior      map[string]map[string]Sample `json:"prior_baselines,omitempty"`
	Benchmarks map[string]Sample            `json:"benchmarks"`
}

func main() {
	var (
		record    = flag.Bool("record", false, "run the suite and write the snapshot")
		compare   = flag.Bool("compare", false, "run the suite and gate against the snapshot")
		out       = flag.String("out", "BENCH_PR6.json", "snapshot path for -record")
		baseline  = flag.String("baseline", "BENCH_PR6.json", "snapshot path for -compare")
		pre       = flag.String("pre", "", "raw `go test -bench` capture to import as pre_pr5_baseline (with -record)")
		prior     = flag.String("prior", "", "name=path of an earlier snapshot to fold into prior_baselines (with -record)")
		note      = flag.String("note", "", "free-form note stored in the snapshot")
		count     = flag.Int("count", 2, "benchmark repetitions; best-of wins")
		benchtime = flag.String("benchtime", "1x", "go test -benchtime value")
		threshold = flag.Float64("threshold", 10, "max tolerated instr/s drop after machine-speed normalization, percent")
		allocThr  = flag.Float64("alloc-threshold", 20, "max tolerated allocs/op growth, percent")
	)
	flag.Parse()
	switch {
	case *record == *compare:
		fmt.Fprintln(os.Stderr, "benchjson: exactly one of -record or -compare is required")
		os.Exit(2)
	case *record:
		if err := doRecord(*out, *pre, *prior, *note, *count, *benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	case *compare:
		if err := doCompare(*baseline, *count, *benchtime, *threshold, *allocThr); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// runSuite takes count full passes over the suite and folds them
// best-of. Separate passes — not `go test -count` — so each
// benchmark's repetitions are spread across the run's whole wall time
// (see the package comment on machine noise).
func runSuite(count int, benchtime string) (map[string]Sample, error) {
	var all strings.Builder
	for i := 0; i < count; i++ {
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", benchPattern,
			"-benchtime", benchtime, "-benchmem", ".")
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test -bench (pass %d/%d): %w", i+1, count, err)
		}
		all.Write(raw)
		all.WriteByte('\n')
	}
	samples := parseBench(all.String())
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark lines in go test output")
	}
	return samples, nil
}

// resultLine matches one benchmark result: name, iteration count, then
// value/unit pairs handled field-by-field below.
var resultLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// gomaxprocsSuffix strips the -8 style suffix go test appends to
// benchmark names, so snapshots transfer between machines.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench folds every result line into best-of samples per benchmark:
// throughput units (instr/s, MB/s) keep the maximum across repetitions,
// cost units (ns/op, B/op, allocs/op) the minimum.
func parseBench(out string) map[string]Sample {
	samples := make(map[string]Sample)
	for _, line := range strings.Split(out, "\n") {
		m := resultLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		var s Sample
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.NsPerOp = v
			case "instr/s":
				s.InstrPerSec = v
			case "MB/s":
				s.MBPerSec = v
			case "B/op":
				s.BytesPerOp = v
			case "allocs/op":
				s.AllocsPerOp = v
			case "cpus":
				s.CPUs = v
			}
		}
		prev, seen := samples[name]
		if !seen {
			samples[name] = s
			continue
		}
		samples[name] = Sample{
			NsPerOp:     minNonzero(prev.NsPerOp, s.NsPerOp),
			InstrPerSec: max(prev.InstrPerSec, s.InstrPerSec),
			MBPerSec:    max(prev.MBPerSec, s.MBPerSec),
			BytesPerOp:  minNonzero(prev.BytesPerOp, s.BytesPerOp),
			AllocsPerOp: minNonzero(prev.AllocsPerOp, s.AllocsPerOp),
			CPUs:        max(prev.CPUs, s.CPUs),
		}
	}
	return samples
}

func minNonzero(a, b float64) float64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	return min(a, b)
}

func doRecord(out, pre, prior, note string, count int, benchtime string) error {
	snap := Snapshot{
		Schema:    "mlpcache-bench/v1",
		Go:        runtime.Version(),
		Note:      note,
		Count:     count,
		Benchtime: benchtime,
	}
	// Carry the pre-optimization baseline and prior snapshots forward
	// across re-records.
	if prevRaw, err := os.ReadFile(out); err == nil {
		var prev Snapshot
		if json.Unmarshal(prevRaw, &prev) == nil {
			snap.PreBase = prev.PreBase
			snap.Prior = prev.Prior
			if note == "" {
				snap.Note = prev.Note
			}
		}
	}
	if pre != "" {
		raw, err := os.ReadFile(pre)
		if err != nil {
			return fmt.Errorf("reading -pre capture: %w", err)
		}
		snap.PreBase = parseBench(string(raw))
	}
	if prior != "" {
		name, path, ok := strings.Cut(prior, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("-prior wants name=path, got %q", prior)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("reading -prior snapshot: %w", err)
		}
		var ps Snapshot
		if err := json.Unmarshal(raw, &ps); err != nil {
			return fmt.Errorf("parsing -prior snapshot %s: %w", path, err)
		}
		if snap.Prior == nil {
			snap.Prior = make(map[string]map[string]Sample)
		}
		snap.Prior[name] = ps.Benchmarks
		// An imported snapshot's own pre-optimization section is the
		// oldest record we have; keep it unless -pre supplies a fresh one.
		if snap.PreBase == nil {
			snap.PreBase = ps.PreBase
		}
	}
	samples, err := runSuite(count, benchtime)
	if err != nil {
		return err
	}
	snap.Benchmarks = samples
	doc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: recorded %d benchmarks to %s\n", len(samples), out)
	return nil
}

func doCompare(baseline string, count int, benchtime string, threshold, allocThr float64) error {
	raw, err := os.ReadFile(baseline)
	if err != nil {
		return fmt.Errorf("reading baseline (run `make bench-record` first): %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("parsing %s: %w", baseline, err)
	}
	current, err := runSuite(count, benchtime)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(snap.Benchmarks))
	for name := range snap.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	// Machine-speed normalizer: the suite-wide median of per-benchmark
	// instr/s ratios, clamped at 1.0 so a faster machine never raises
	// the bar. Host steal moves the whole suite together; a code
	// regression moves specific benchmarks away from the median.
	var ratios []float64
	for _, name := range names {
		want := snap.Benchmarks[name]
		if got, ok := current[name]; ok && want.InstrPerSec > 0 && got.InstrPerSec > 0 {
			ratios = append(ratios, got.InstrPerSec/want.InstrPerSec)
		}
	}
	norm := 1.0
	if n := len(ratios); n > 0 {
		sort.Float64s(ratios)
		med := ratios[n/2]
		if n%2 == 0 {
			med = (med + ratios[n/2-1]) / 2
		}
		if med < 1 {
			norm = med
		}
	}
	if norm < 1 {
		fmt.Fprintf(os.Stderr,
			"benchjson: machine-speed normalizer %.3f (suite-median instr/s ratio; drops gated relative to it)\n", norm)
	}
	var failures []string
	for _, name := range names {
		want := snap.Benchmarks[name]
		got, ok := current[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: benchmark disappeared from the suite", name))
			continue
		}
		if want.InstrPerSec > 0 {
			raw := 100 * (got.InstrPerSec/want.InstrPerSec - 1)
			drop := 100 * (1 - got.InstrPerSec/(want.InstrPerSec*norm))
			status := "ok"
			if drop > threshold {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf(
					"%s: instr/s dropped %.1f%% vs suite median (%.0f -> %.0f raw, normalizer %.3f, gate %.1f%%)",
					name, drop, want.InstrPerSec, got.InstrPerSec, norm, threshold))
			}
			fmt.Fprintf(os.Stderr, "%-45s instr/s %12.0f -> %12.0f (%+.1f%% raw, %+.1f%% vs suite) %s\n",
				name, want.InstrPerSec, got.InstrPerSec, raw, -drop, status)
		} else if want.NsPerOp > 0 && got.NsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "%-45s ns/op   %12.0f -> %12.0f (%+.1f%%) info\n",
				name, want.NsPerOp, got.NsPerOp, 100*(got.NsPerOp-want.NsPerOp)/want.NsPerOp)
		}
		if want.AllocsPerOp > 0 {
			growth := 100 * (got.AllocsPerOp - want.AllocsPerOp) / want.AllocsPerOp
			if growth > allocThr {
				failures = append(failures, fmt.Sprintf(
					"%s: allocs/op grew %.1f%% (%.0f -> %.0f, gate %.1f%%)",
					name, growth, want.AllocsPerOp, got.AllocsPerOp, allocThr))
			}
		}
	}
	// Relational gate: the v2 binary tracer's allocation-parity contract
	// holds against the *current* run, not the snapshot, so re-recording
	// cannot bury a zero-alloc regression.
	off, haveOff := current[tracingOffBench]
	v2, haveV2 := current[tracingV2Bench]
	switch {
	case !haveOff || !haveV2:
		failures = append(failures, fmt.Sprintf(
			"%s/%s: tracing benchmarks missing from the suite", tracingOffBench, tracingV2Bench))
	case off.AllocsPerOp > 0 && v2.AllocsPerOp > tracingV2Factor*off.AllocsPerOp:
		failures = append(failures, fmt.Sprintf(
			"%s: allocs/op %.0f exceeds %.0fx untraced (%s at %.0f)",
			tracingV2Bench, v2.AllocsPerOp, tracingV2Factor, tracingOffBench, off.AllocsPerOp))
	default:
		fmt.Fprintf(os.Stderr, "%-45s allocs/op %12.0f vs %9.0f untraced (gate %.0fx) ok\n",
			tracingV2Bench, v2.AllocsPerOp, off.AllocsPerOp, tracingV2Factor)
	}
	// Same discipline for the learned victim paths: bandit and predictor
	// runs must allocate like the LRU baseline, judged on the current run.
	lruRun, haveLRU := current[learnedLRUBench]
	for _, name := range []string{learnedBanditBench, learnedPredBench} {
		pol, havePol := current[name]
		switch {
		case !haveLRU || !havePol:
			failures = append(failures, fmt.Sprintf(
				"%s/%s: learned-eviction benchmarks missing from the suite", learnedLRUBench, name))
		case lruRun.AllocsPerOp > 0 && pol.AllocsPerOp > learnedAllocsFactor*lruRun.AllocsPerOp:
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op %.0f exceeds %.1fx LRU (%s at %.0f)",
				name, pol.AllocsPerOp, learnedAllocsFactor, learnedLRUBench, lruRun.AllocsPerOp))
		default:
			fmt.Fprintf(os.Stderr, "%-45s allocs/op %12.0f vs %9.0f lru (gate %.1fx) ok\n",
				name, pol.AllocsPerOp, lruRun.AllocsPerOp, learnedAllocsFactor)
		}
	}
	// The arena's whole point is allocation recycling: the reused leg
	// must allocate at most half of the cold leg, judged on the current
	// run so re-recording cannot bury a pooling regression.
	cold, haveCold := current[arenaColdBench]
	reused, haveReused := current[arenaReusedBench]
	switch {
	case !haveCold || !haveReused:
		failures = append(failures, fmt.Sprintf(
			"%s/%s: arena benchmarks missing from the suite", arenaColdBench, arenaReusedBench))
	case cold.AllocsPerOp > 0 && reused.AllocsPerOp > arenaAllocsFactor*cold.AllocsPerOp:
		failures = append(failures, fmt.Sprintf(
			"%s: allocs/op %.0f exceeds %.2fx cold (%s at %.0f)",
			arenaReusedBench, reused.AllocsPerOp, arenaAllocsFactor, arenaColdBench, cold.AllocsPerOp))
	default:
		fmt.Fprintf(os.Stderr, "%-45s allocs/op %12.0f vs %9.0f cold (gate %.2fx) ok\n",
			arenaReusedBench, reused.AllocsPerOp, cold.AllocsPerOp, arenaAllocsFactor)
	}
	if len(failures) > 0 {
		return fmt.Errorf("performance regression:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(os.Stderr, "benchjson: no regressions against", baseline)
	return nil
}
