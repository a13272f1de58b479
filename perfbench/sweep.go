package main

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"mlpcache/internal/experiments"
	"mlpcache/internal/sim"
	"mlpcache/internal/trace"
)

// The sweep: fig5 (LIN(4) against LRU), fig4's λ sweep and fig9 (SBAR)
// over a fixed benchmark subset on one Runner. Every policy reuses each
// benchmark's stream and the LRU baseline is memoised, so each
// iteration runs 6 fresh simulations per benchmark on 4 streams.
var (
	sweepBenches = []string{"art", "mcf", "twolf", "bzip2"}
	sweepTables  = []string{"fig5", "fig4", "fig9"}
)

const (
	sweepBudget = 100_000
	// sweepFresh is the number of fresh simulations per iteration:
	// LRU, LIN(1..4) and SBAR on each benchmark.
	sweepFresh = 6
)

// freshRun is one simulation the runner reported through OnResult.
type freshRun struct {
	bench string
	spec  sim.PolicySpec
	res   sim.Result
}

func (f freshRun) key() string { return fmt.Sprintf("%s/%s", f.bench, f.spec) }

// sweepIter is one full sweep on a fresh Runner.
type sweepIter struct {
	seed   uint64
	tables []time.Duration
	bodies [][]byte
	fresh  []freshRun
	wall   time.Duration
}

func (it *sweepIter) stat() passStat {
	st := passStat{wall: it.wall, durs: it.tables}
	for _, f := range it.fresh {
		st.instr += f.res.Instructions
	}
	return st
}

// newSweepRunner builds the iteration's Runner; OnResult calls are
// serialized by the runner.
func newSweepRunner(r *run, it *sweepIter) *experiments.Runner {
	rn := experiments.NewRunner(sweepBudget, it.seed)
	rn.Benchmarks = sweepBenches
	rn.Workers = r.nproc
	rn.OnResult = func(bench string, spec sim.PolicySpec, res sim.Result) {
		it.fresh = append(it.fresh, freshRun{bench: bench, spec: spec, res: res})
	}
	return rn
}

// runSweepIter renders every table of the sweep in order; each table is
// one job. table, when non-nil, wraps each table call (the traced run
// records it as a span).
func runSweepIter(r *run, rn *experiments.Runner, it *sweepIter, table func(id string, f func())) {
	t0 := time.Now()
	for _, id := range sweepTables {
		var buf bytes.Buffer
		var err error
		call := func() { err = protect(func() error { return experiments.RunByIDJSON(rn, id, &buf) }) }
		s := time.Now()
		if table != nil {
			table(id, call)
		} else {
			call()
		}
		it.tables = append(it.tables, time.Since(s))
		it.bodies = append(it.bodies, buf.Bytes())
		r.op(err)
	}
	it.wall = time.Since(t0)
	r.check(len(it.fresh) == sweepFresh*len(sweepBenches), "sweep seed %d ran %d fresh simulations, want %d",
		it.seed, len(it.fresh), sweepFresh*len(sweepBenches))
	sort.Slice(it.fresh, func(i, j int) bool { return it.fresh[i].key() < it.fresh[j].key() })
}

func runSweep(r *run) error {
	var rn0 *experiments.Runner
	var it0 *sweepIter
	setupS, err := timeSetup(func() (func(), error) {
		it0 = &sweepIter{seed: derive(r.seed, 3, 0)}
		rn0 = newSweepRunner(r, it0)
		return nil, rn0.Validate()
	})
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setupS)

	share := 1.0
	if r.traced {
		share = untracedShare
	}
	start := time.Now()
	until := r.deadline(share)
	var iters []*sweepIter
	for i := 0; i == 0 || time.Now().Before(until); i++ {
		it, rn := it0, rn0
		if i > 0 {
			it = &sweepIter{seed: derive(r.seed, 3, uint64(i))}
			rn = newSweepRunner(r, it)
		}
		runSweepIter(r, rn, it, nil)
		iters = append(iters, it)
	}
	untraced := time.Since(start)
	var st []passStat
	for _, it := range iters {
		st = append(st, it.stat())
	}
	var d digest
	var agg simAgg
	for _, b := range iters[0].bodies {
		d.addBytes(b)
	}
	for _, f := range iters[0].fresh {
		d.add(f.res)
		agg.add(f.res)
	}

	if !r.traced {
		r.set("mem_peak_mb", "MB", peakRSSMB())
		reportPasses(r, st)
		// Every fresh result of the first iteration must equal a
		// standalone run of the same configuration (no arena, no memo).
		standalone(r, iters[0], func(c cell, f func()) { f() })
		fmt.Printf("digest: %s (tables and simulated statistics of the first iteration)\n", d.String())
		accuracy(r)
		return nil
	}

	// Traced replay of the same iterations, one span per table, then the
	// first iteration's fresh runs standalone with the stream drawn alone
	// (workload) and the engine over the buffer (sim).
	start = time.Now()
	opID := 0
	for _, a := range iters {
		it := &sweepIter{seed: a.seed}
		rn := newSweepRunner(r, it)
		runSweepIter(r, rn, it, func(id string, f func()) {
			opID++
			r.spans.do("experiments", 0, opID, f)
		})
		same := len(it.fresh) == len(a.fresh)
		for i := 0; same && i < len(it.fresh); i++ {
			same = it.fresh[i].key() == a.fresh[i].key() && reflect.DeepEqual(it.fresh[i].res, a.fresh[i].res)
		}
		r.check(same, "sweep seed %d: traced fresh results differ from the plain run", a.seed)
	}
	traced := time.Since(start)

	perBench := map[string]time.Duration{}
	var busy time.Duration
	var instr uint64
	standalone(r, iters[0], func(c cell, f func()) {
		s := time.Now()
		f()
		perBench[c.Bench] += time.Since(s)
		busy += time.Since(s)
		instr += c.Budget
	})
	for _, b := range sweepBenches {
		fmt.Printf("sweep: %s standalone %.3fs of the first iteration's %.3fs wall\n", b,
			perBench[b].Seconds(), iters[0].wall.Seconds())
	}
	gen := float64(r.spans.self("workload")) / float64(instr)
	engine := float64(r.spans.self("sim")) / float64(instr)
	plain := float64(iters[0].wall) * float64(r.nproc) / float64(iters[0].stat().instr)
	r.set("workload.gen_ns_per_instr", "ns/instr", gen)
	r.set("sim.engine_ns_per_instr", "ns/instr", engine)
	r.set("sim.untraced_ns_per_instr", "ns/instr", plain)
	r.set("sim.unattributed_share", "ratio", (plain-gen-engine)/plain)
	r.set("trace.overhead_s", "s", (traced - untraced).Seconds())
	var keys []string
	for _, f := range iters[0].fresh {
		keys = append(keys, fmt.Sprintf("%s/%d", f.bench, iters[0].seed))
	}
	reportStreams(r, keys)
	r.set("experiments.fresh_runs", "runs", float64(len(iters[0].fresh)))
	r.set("experiments.worker_util", "ratio", busy.Seconds()/(iters[0].wall.Seconds()*float64(r.nproc)))
	agg.report(r)
	fmt.Printf("digest: %s (tables and simulated statistics of the first iteration)\n", d.String())
	probeLayers(r, probeInput{benches: sweepBenches, seed: r.seed, budget: sweepBudget}, probeMulti|probeService)
	return nil
}

// standalone re-runs an iteration's fresh simulations outside the
// runner, on nproc goroutines when untraced and one at a time (each
// wrapped by timed) when traced, and checks each Result against the
// runner's. Traced runs draw the stream into a buffer first.
func standalone(r *run, it *sweepIter, timed func(c cell, f func())) {
	cells := make([]cell, len(it.fresh))
	for i, f := range it.fresh {
		cells[i] = cell{Bench: f.bench, Seed: it.seed, Policy: f.spec, Budget: sweepBudget}
	}
	results := make([]sim.Result, len(cells))
	errs := make([]error, len(cells))
	if r.traced {
		buf := make([]trace.Instr, 0, sweepBudget)
		for i, c := range cells {
			timed(c, func() {
				var slice []trace.Instr
				r.spans.do("workload", 0, i, func() { slice = materialise(c.source(), c.Budget, buf) })
				r.spans.do("sim", 0, i, func() { results[i], errs[i] = sim.Run(c.config(), trace.NewSliceSource(slice)) })
			})
		}
	} else {
		parallel(r.nproc, len(cells), func(i int) {
			results[i], errs[i] = sim.Run(cells[i].config(), cells[i].source())
		})
	}
	for i, c := range cells {
		r.op(errs[i])
		r.check(reflect.DeepEqual(results[i], it.fresh[i].res), "sweep %s/%s seed %d: standalone Result differs from the runner's",
			c.Bench, c.Policy, c.Seed)
	}
}

// parallel runs f(0..n-1) on at most workers goroutines and waits.
func parallel(workers, n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
