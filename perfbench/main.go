// Command perfbench is the repository benchmark. It drives the simulator
// library, the experiment runner and the sweep service under one of four
// named workloads, checks every simulated output, and prints the metrics
// named in BENCHMARK.json as the last line of standard output. From the
// repository root:
//
//	bash perfbench/run.sh --workload single-core --seed 42 --seconds 20 --trace 0
//
// With -trace 0 it measures the end-to-end metrics with no tracing; with
// -trace 1 it replays the same operations with spans around every call
// into a module and reports the per-layer ledger instead. README.md lists
// every metric, its unit, its layer and the end-to-end metric it should
// move. It reads BENCHMARK.json from the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation: its parameters, its operation and
// check accounting, the metrics it has produced, and (traced runs only)
// the span log.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	nproc    int
	outDir   string

	attempted  int
	failedOps  int
	failedChks int
	metrics    map[string]metric
	spans      *spanLog
}

// set records a metric.
func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op accounts one attempted operation and whether it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failedOps++
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

// check accounts one output check; a failed check counts as a failed
// operation in error_rate.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failedChks++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// deadline returns the end of a measuring phase that takes the given
// share of the run's seconds.
func (r *run) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * float64(r.seconds)))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"single-core": runSingle,
	"multi-core":  runMulti,
	"sweep":       runSweep,
	"service":     runService,
}

// spec is the part of BENCHMARK.json the program checks its output
// against: every declared metric must be produced, with its unit.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: single-core, multi-core, sweep or service")
	seed := flag.Uint64("seed", 42, "workload seed (42 is the seed the workload models were tuned at)")
	seconds := flag.Int("seconds", 20, "seconds to measure")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting the per-layer ledger")
	outDir := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the repository root)\n", err)
		return 1
	}
	var declared spec
	if err := json.Unmarshal(raw, &declared); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: BENCHMARK.json: %v\n", err)
		return 1
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		nproc:    nproc,
		outDir:   *outDir,
		metrics:  map[string]metric{},
	}
	if r.traced {
		r.spans = newSpanLog()
	}
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s os=%s/%s\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%d; modelled caches start empty (cold) in every run\n",
		r.workload, r.seed, *seconds, *traceFlag)
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if r.traced {
		path := filepath.Join(r.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", r.spans.len(), path)
	}

	r.set("success_rate", "ratio",
		max(0, 1-float64(r.failedOps+r.failedChks)/float64(max(1, r.attempted))))
	want := declared.EndToEnd
	if r.traced {
		want = declared.PerLayer
	}
	out := result{Metrics: map[string]metric{}}
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s (%s) not produced; got %+v\n", m.Name, m.Unit, got)
			return 1
		}
		out.Metrics[m.Name] = got
	}
	printExtra(r.metrics, out.Metrics)
	out.Attempted = r.attempted
	out.Failed = r.failedOps + r.failedChks
	out.Correct = r.failedChks == 0 && r.failedOps == 0 && r.attempted > 0
	fmt.Printf("error_rate: %.6f (%d failed operations + %d failed checks over %d attempted)\n",
		float64(out.Failed)/float64(max(1, r.attempted)), r.failedOps, r.failedChks, r.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printExtra prints, one per line, the values a run measured beyond the
// ones its mode reports in the JSON line.
func printExtra(all, reported map[string]metric) {
	var names []string
	for n := range all {
		if _, ok := reported[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("also: %s = %g %s\n", n, all[n].Value, all[n].Unit)
	}
}
