package main

import (
	"fmt"
	"reflect"
	"time"

	"mlpcache/internal/sim"
	"mlpcache/internal/trace"
)

// The single-core grid: art has parallel misses, mcf an isolated chase,
// parser the dead-block pollution LIN suffers from, and apsi the highest
// IPC, so the share of fast-forwarded cycles and the MSHR occupancy both
// vary across the grid.
var (
	singleBenches = []string{"art", "mcf", "parser", "apsi"}
	gridPolicies  = []sim.PolicySpec{{Kind: sim.PolicyLRU}, {Kind: sim.PolicyLIN}, {Kind: sim.PolicySBAR}}
)

const (
	singleBudget = 200_000
	// Set-up timing (see timeSetup): setup_s is a median over batches.
	setupReps    = 9
	setupMaxReps = 200
	setupMin     = 200 * time.Millisecond
	setupBatch   = 2 * time.Millisecond
	// untracedShare is the part of a traced run's seconds spent on the
	// untraced operations that the traced replay (about as long again)
	// is compared with; the layer probes take the rest.
	untracedShare = 0.35
)

// singlePass returns pass p's grid. Every cell draws its own stream seed,
// so no two runs of the workload share an instruction stream and nothing
// can be memoised across them.
func singlePass(seed uint64, p int) []cell {
	var cells []cell
	for bi, b := range singleBenches {
		for pi, pol := range gridPolicies {
			cells = append(cells, cell{Bench: b, Seed: derive(seed, 1, uint64(p), uint64(bi), uint64(pi)),
				Policy: pol, Budget: singleBudget})
		}
	}
	return cells
}

// simOp is one timed simulation.
type simOp struct {
	c   cell
	res sim.Result
	dur time.Duration
}

// simPass is one pass over a grid of cells.
type simPass struct {
	ops  []simOp
	wall time.Duration
}

func (p simPass) instructions() uint64 {
	var n uint64
	for _, o := range p.ops {
		n += o.res.Instructions
	}
	return n
}

func (p simPass) stat() passStat {
	st := passStat{instr: p.instructions(), wall: p.wall}
	for _, o := range p.ops {
		st.durs = append(st.durs, o.dur)
	}
	return st
}

func (p simPass) streams() []string {
	var keys []string
	for _, o := range p.ops {
		keys = append(keys, fmt.Sprintf("%s/%d", o.c.Bench, o.c.Seed))
	}
	return keys
}

// passStat is what the end-to-end report needs from one pass of any
// workload: simulated instructions, wall time and each job's latency.
type passStat struct {
	instr uint64
	wall  time.Duration
	durs  []time.Duration
}

// runPasses runs grid passes until the deadline (at least one). Pass 0
// uses the prepared sources; later passes build theirs inside the pass.
func runPasses(r *run, cells0 []cell, srcs0 []trace.Source, until time.Time,
	grid func(p int) []cell) []simPass {
	var passes []simPass
	for p := 0; p == 0 || time.Now().Before(until); p++ {
		t0 := time.Now()
		cells, srcs := cells0, srcs0
		if p > 0 {
			cells = grid(p)
			srcs = make([]trace.Source, len(cells))
			for i, c := range cells {
				srcs[i] = c.source()
			}
		}
		pass := simPass{}
		for i, c := range cells {
			s := time.Now()
			res, err := sim.Run(c.config(), srcs[i])
			pass.ops = append(pass.ops, simOp{c: c, res: res, dur: time.Since(s)})
			r.op(err)
			r.check(err != nil || res.Instructions == c.Budget,
				"%s/%s retired %d of %d instructions", c.Bench, c.Policy, res.Instructions, c.Budget)
		}
		pass.wall = time.Since(t0)
		passes = append(passes, pass)
	}
	return passes
}

// reportPasses sets the end-to-end metrics of a pass-structured
// workload: rates and walls are medians over passes, latencies over jobs.
func reportPasses(r *run, passes []passStat) {
	var rates, walls, lat []float64
	var total time.Duration
	for _, p := range passes {
		rates = append(rates, float64(p.instr)/p.wall.Seconds())
		walls = append(walls, p.wall.Seconds())
		total += p.wall
		for _, d := range p.durs {
			lat = append(lat, float64(d)/1e6)
		}
	}
	r.set("instr_per_s", "instr/s", median(rates))
	r.set("wall_s", "s", median(walls))
	r.set("job_p50_ms", "ms", median(lat))
	r.set("job_p90_ms", "ms", quantile(lat, 0.9))
	r.set("jobs_per_s", "1/s", float64(len(lat))/total.Seconds())
	fmt.Printf("samples: %d passes, %d jobs (p90 has %d jobs beyond it)\n",
		len(passes), len(lat), len(lat)-int(0.9*float64(len(lat)))-1)
}

func runSingle(r *run) error {
	var cells []cell
	var srcs []trace.Source
	setupS, err := timeSetup(func() (func(), error) {
		cells = singlePass(r.seed, 0)
		srcs = make([]trace.Source, len(cells))
		for i, c := range cells {
			if err := c.config().Validate(); err != nil {
				return nil, err
			}
			srcs[i] = c.source()
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setupS)
	grid := func(p int) []cell { return singlePass(r.seed, p) }

	if !r.traced {
		passes := runPasses(r, cells, srcs, r.deadline(1), grid)
		r.set("mem_peak_mb", "MB", peakRSSMB())
		reportPasses(r, stats(passes))
		checkRerun(r, passes[0])
		accuracy(r)
		return nil
	}

	// Untraced pass, then the same operations replayed with spans: the
	// stream drawn alone into a buffer (workload), then the engine over
	// that buffer (sim). The two must produce identical Results.
	start := time.Now()
	passes := runPasses(r, cells, srcs, r.deadline(untracedShare), grid)
	untraced := time.Since(start)
	var instr uint64
	for _, p := range passes {
		instr += p.instructions()
	}
	start = time.Now()
	buf := make([]trace.Instr, 0, singleBudget)
	opID := 0
	for _, p := range passes {
		for _, o := range p.ops {
			opID++
			root := r.spans.begin("bench.op", 0, opID)
			var slice []trace.Instr
			r.spans.do("workload", root, opID, func() { slice = materialise(o.c.source(), o.c.Budget, buf) })
			var res sim.Result
			var err error
			r.spans.do("sim", root, opID, func() { res, err = sim.Run(o.c.config(), trace.NewSliceSource(slice)) })
			r.spans.end(root)
			r.op(err)
			r.check(reflect.DeepEqual(res, o.res), "%s/%s seed %d: traced SliceSource Result differs from the plain run",
				o.c.Bench, o.c.Policy, o.c.Seed)
		}
	}
	traced := time.Since(start)

	gen := float64(r.spans.self("workload")) / float64(instr)
	engine := float64(r.spans.self("sim")) / float64(instr)
	plain := float64(untraced) / float64(instr)
	r.set("workload.gen_ns_per_instr", "ns/instr", gen)
	r.set("sim.engine_ns_per_instr", "ns/instr", engine)
	r.set("sim.untraced_ns_per_instr", "ns/instr", plain)
	r.set("sim.unattributed_share", "ratio", (plain-gen-engine)/plain)
	r.set("trace.overhead_s", "s", (traced - untraced).Seconds())
	fmt.Printf("reconcile: gen %.1f + engine %.1f = %.1f ns/instr vs untraced %.1f ns/instr (residual %+.1f%%, budget ±10%%)\n",
		gen, engine, gen+engine, plain, 100*(plain-gen-engine)/plain)

	reportStreams(r, passes[0].streams())
	reportWorkerUtil(r, stats(passes), 1)
	var agg simAgg
	for _, o := range passes[0].ops {
		agg.add(o.res)
	}
	agg.report(r)
	printDigest(passes[0])
	probeLayers(r, probeInput{benches: singleBenches, seed: r.seed, budget: singleBudget}, probeMulti|probeService)
	return nil
}

// checkRerun re-runs pass 0 on freshly built sources: every Result must
// be identical.
func checkRerun(r *run, p simPass) {
	for _, o := range p.ops {
		res, err := sim.Run(o.c.config(), o.c.source())
		r.op(err)
		r.check(reflect.DeepEqual(res, o.res), "%s/%s seed %d: re-run Result differs", o.c.Bench, o.c.Policy, o.c.Seed)
	}
	printDigest(p)
}

// printDigest prints the digest of a pass's simulated statistics.
func printDigest(p simPass) {
	var d digest
	for _, o := range p.ops {
		d.add(o.res)
	}
	fmt.Printf("digest: %s (simulated statistics of the first pass)\n", d.String())
}

// reportStreams sets workload.streams_per_distinct: stream builds
// divided by distinct (bench, seed) streams, over the given builds.
func reportStreams(r *run, keys []string) {
	distinct := map[string]bool{}
	for _, k := range keys {
		distinct[k] = true
	}
	r.set("workload.streams_per_distinct", "ratio", float64(len(keys))/float64(max(1, len(distinct))))
}

// reportWorkerUtil sets experiments.fresh_runs (fresh simulations in the
// first pass) and experiments.worker_util (busy time over wall ×
// workers, median over passes) for a workload that runs its own
// simulations.
func reportWorkerUtil(r *run, passes []passStat, workers int) {
	var util []float64
	for _, p := range passes {
		var busy time.Duration
		for _, d := range p.durs {
			busy += d
		}
		util = append(util, busy.Seconds()/(p.wall.Seconds()*float64(workers)))
	}
	r.set("experiments.fresh_runs", "runs", float64(len(passes[0].durs)))
	r.set("experiments.worker_util", "ratio", median(util))
}

// stats converts passes for the shared reports.
func stats(passes []simPass) []passStat {
	out := make([]passStat, len(passes))
	for i, p := range passes {
		out[i] = p.stat()
	}
	return out
}
