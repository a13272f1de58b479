package main

import (
	"fmt"
	"reflect"
	"time"

	"mlpcache/internal/sim"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// The multi-core mix: four heterogeneous programs sharing the L2 under
// LRU and SBAR, with the default engine selection.
var (
	multiBenches  = []string{"mcf", "art", "parser", "equake"}
	multiPolicies = []sim.PolicySpec{{Kind: sim.PolicyLRU}, {Kind: sim.PolicySBAR}}
)

// multiBudget is each core's instruction budget.
const multiBudget = 40_000

// multiJob is one RunMulti over fresh streams.
type multiJob struct {
	policy sim.PolicySpec
	seeds  []uint64
	res    sim.MultiResult
	dur    time.Duration
}

func (j *multiJob) config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = multiBudget
	cfg.Policy = j.policy
	return cfg
}

func (j *multiJob) sources() []trace.Source {
	srcs := make([]trace.Source, len(multiBenches))
	for i, b := range multiBenches {
		w, _ := workload.ByName(b)
		srcs[i] = w.Build(j.seeds[i])
	}
	return srcs
}

// multiPass returns pass p's jobs; every job draws its own stream seeds.
func multiPass(seed uint64, p int) []*multiJob {
	var jobs []*multiJob
	for pi, pol := range multiPolicies {
		j := &multiJob{policy: pol}
		for c := range multiBenches {
			j.seeds = append(j.seeds, derive(seed, 2, uint64(p), uint64(pi), uint64(c)))
		}
		jobs = append(jobs, j)
	}
	return jobs
}

type multiPassRun struct {
	jobs []*multiJob
	wall time.Duration
}

func (p multiPassRun) stat() passStat {
	st := passStat{wall: p.wall}
	for _, j := range p.jobs {
		st.instr += j.res.Instructions()
		st.durs = append(st.durs, j.dur)
	}
	return st
}

func runMulti(r *run) error {
	var jobs0 []*multiJob
	var srcs0 [][]trace.Source
	setupS, err := timeSetup(func() (func(), error) {
		jobs0 = multiPass(r.seed, 0)
		srcs0 = nil
		for _, j := range jobs0 {
			if err := j.config().Validate(); err != nil {
				return nil, err
			}
			srcs0 = append(srcs0, j.sources())
		}
		return nil, nil
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
	var passes []multiPassRun
	for p := 0; p == 0 || time.Now().Before(until); p++ {
		t0 := time.Now()
		jobs, srcs := jobs0, srcs0
		if p > 0 {
			jobs, srcs = multiPass(r.seed, p), nil
			for _, j := range jobs {
				srcs = append(srcs, j.sources())
			}
		}
		for i, j := range jobs {
			s := time.Now()
			res, err := sim.RunMulti(j.config(), srcs[i]...)
			j.res, j.dur = res, time.Since(s)
			r.op(err)
			checkRetired(r, j)
		}
		passes = append(passes, multiPassRun{jobs: jobs, wall: time.Since(t0)})
	}
	untraced := time.Since(start)
	engine := "serial"
	if passes[0].jobs[0].res.Parallel != nil {
		engine = "parallel"
	}
	fmt.Printf("host: multicore_engine=%s cores=%d\n", engine, len(multiBenches))
	var st []passStat
	var d digest
	var agg simAgg
	for _, p := range passes {
		st = append(st, p.stat())
	}
	for _, j := range passes[0].jobs {
		d.add(j.res)
		agg.addMulti(j.res)
	}

	if !r.traced {
		r.set("mem_peak_mb", "MB", peakRSSMB())
		reportPasses(r, st)
		for _, j := range passes[0].jobs {
			res, err := sim.RunMulti(j.config(), j.sources()...)
			r.op(err)
			r.check(reflect.DeepEqual(res, j.res), "multi-core %s: re-run MultiResult differs", j.policy.Kind)
		}
		fmt.Printf("digest: %s (simulated statistics of the first pass)\n", d.String())
		accuracy(r)
		return nil
	}

	// Traced replay: each core's stream drawn alone (workload), RunMulti
	// over the buffers (sim.multi), then the same buffers run one by one
	// on the single-core engine (sim), outside the job's span.
	bufs := make([][]trace.Instr, len(multiBenches))
	var instr, singleInstr uint64
	var traced time.Duration
	opID := 0
	var keys []string
	for pi, p := range passes {
		for _, j := range p.jobs {
			opID++
			root := r.spans.begin("bench.op", 0, opID)
			srcs := j.sources()
			for c := range srcs {
				r.spans.do("workload", root, opID, func() { bufs[c] = materialise(srcs[c], multiBudget, bufs[c]) })
				if pi == 0 {
					keys = append(keys, fmt.Sprintf("%s/%d", multiBenches[c], j.seeds[c]))
				}
			}
			slices := make([]trace.Source, len(bufs))
			for c := range bufs {
				slices[c] = trace.NewSliceSource(bufs[c])
			}
			var res sim.MultiResult
			var err error
			r.spans.do("sim.multi", root, opID, func() { res, err = sim.RunMulti(j.config(), slices...) })
			r.spans.end(root)
			r.op(err)
			r.check(reflect.DeepEqual(res, j.res), "multi-core %s: traced SliceSource MultiResult differs from the plain run",
				j.policy.Kind)
			instr += res.Instructions()
			for c := range bufs {
				cfg := j.config()
				var single sim.Result
				r.spans.do("sim", 0, opID, func() { single, err = sim.Run(cfg, trace.NewSliceSource(bufs[c])) })
				r.op(err)
				singleInstr += single.Instructions
			}
		}
	}
	for _, d := range r.spans.durations("bench.op") {
		traced += d
	}
	gen := float64(r.spans.self("workload")) / float64(instr)
	multi := float64(r.spans.self("sim.multi")) / float64(instr)
	single := float64(r.spans.self("sim")) / float64(singleInstr)
	plain := float64(untraced) / float64(instr)
	r.set("workload.gen_ns_per_instr", "ns/instr", gen)
	r.set("sim.engine_ns_per_instr", "ns/instr", single)
	r.set("sim.multi_ns_per_instr", "ns/instr", multi)
	r.set("sim.multi_over_single", "ratio", multi/single)
	r.set("sim.untraced_ns_per_instr", "ns/instr", plain)
	r.set("sim.unattributed_share", "ratio", (plain-gen-multi)/plain)
	r.set("trace.overhead_s", "s", (traced - untraced).Seconds())
	reportStreams(r, keys)
	reportWorkerUtil(r, st, 1)
	agg.report(r)
	fmt.Printf("digest: %s (simulated statistics of the first pass)\n", d.String())
	probeLayers(r, probeInput{benches: multiBenches, seed: r.seed, budget: singleBudget}, probeService)
	return nil
}

// checkRetired checks that every core retired its whole budget.
func checkRetired(r *run, j *multiJob) {
	ok := len(j.res.Cores) == len(multiBenches) &&
		j.res.Instructions() == uint64(len(multiBenches))*multiBudget
	for _, c := range j.res.Cores {
		ok = ok && c.Instructions == multiBudget
	}
	r.check(ok, "multi-core %s retired %d instructions, want %d per core", j.policy.Kind,
		j.res.Instructions(), uint64(multiBudget))
}
