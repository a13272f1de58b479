package main

import (
	"fmt"
	"runtime"
	"time"

	"mlpcache/internal/cache"
	"mlpcache/internal/core"
	"mlpcache/internal/cpu"
	"mlpcache/internal/dram"
	"mlpcache/internal/learn"
	"mlpcache/internal/metrics"
	"mlpcache/internal/mshr"
	"mlpcache/internal/oracle"
	"mlpcache/internal/sim"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// probeInput is the part of a workload's inputs the layer probes reuse:
// its benchmarks, its seed and its per-run budget.
type probeInput struct {
	benches []string
	seed    uint64
	budget  uint64
}

// Optional probes, for workloads whose own operations do not already
// exercise that layer.
const (
	probeMulti = 1 << iota
	probeService
)

const (
	// probeReps is how many times each probe repeats; it reports the
	// median.
	probeReps = 5
	// setupProbeReps repeats the minimal-budget runs more, since each
	// is short.
	setupProbeReps = 15
	// mshrSteps is the number of miss lifetimes per MSHR probe.
	mshrSteps = 200_000
	// probeServiceBudget is each probe job's instruction budget.
	probeServiceBudget = 50_000
)

// probeLayers times each module's public functions directly on the
// workload's inputs. Every probe call is recorded as a span of its layer.
func probeLayers(r *run, in probeInput, extra int) {
	c := cell{Bench: in.benches[0], Seed: derive(in.seed, 6), Policy: sim.PolicySpec{Kind: sim.PolicyLRU}, Budget: in.budget}
	probeCPU(r, c)
	probeDRAM(r, c)
	probeMSHR(r)
	probeSetup(r, c)
	probeAllocs(r, c)
	probeReplay(r, c)
	probeEvents(r, c)
	if extra&probeMulti != 0 {
		probeMultiLayer(r, in)
	}
	if extra&probeService != 0 {
		r.op(probeServiceLayer(r, in))
	}
}

// medianOf repeats f and returns the median of its durations.
func medianOf(r *run, layer string, reps int, f func()) time.Duration {
	var ds []float64
	for i := 0; i < reps; i++ {
		s := time.Now()
		r.spans.do(layer, 0, 0, f)
		ds = append(ds, float64(time.Since(s)))
	}
	return time.Duration(median(ds))
}

// fixedMem is a memory system with one latency for every access, so the
// core is measured alone: 2 cycles is an L1 hit, 444 an isolated DRAM
// miss that fills the window with waiting entries.
type fixedMem struct{ lat uint64 }

func (m fixedMem) Access(_ uint64, _ bool, now uint64) (uint64, bool) { return now + m.lat, true }

// cpuRun steps a core over the stream the way the run loop does,
// fast-forwarding through cycles in which it did no work.
func cpuRun(slice []trace.Instr, lat uint64) uint64 {
	c := cpu.New(cpu.DefaultConfig(), fixedMem{lat: lat}, trace.NewSliceSource(slice))
	var retired uint64
	for now := uint64(1); !c.Finished(); now++ {
		retired += uint64(c.Cycle(now))
		if !c.DidWork() {
			wake := c.NextEvent(now)
			if wake == ^uint64(0) {
				break
			}
			if wake > now+1 {
				c.NoteSkipped(wake - now - 1)
				now = wake - 1
			}
		}
	}
	return retired
}

func probeCPU(r *run, c cell) {
	slice := materialise(c.source(), c.Budget, nil)
	for _, m := range []struct {
		name string
		lat  uint64
	}{{"l1", 2}, {"mem", 444}} {
		var retired uint64
		d := medianOf(r, "cpu", probeReps, func() { retired = cpuRun(slice, m.lat) })
		r.check(retired == uint64(len(slice)), "cpu probe (%s) retired %d of %d", m.name, retired, len(slice))
		r.set("cpu.ns_per_instr."+m.name, "ns/instr", float64(d)/float64(len(slice)))
	}
}

// probeDRAM issues a DRAM read for every memory access of the stream,
// in program order, 10 cycles apart.
func probeDRAM(r *run, c cell) {
	var blocks []uint64
	for _, in := range materialise(c.source(), c.Budget, nil) {
		if in.Kind.IsMem() {
			blocks = append(blocks, in.Addr/64)
		}
	}
	d := medianOf(r, "dram", probeReps, func() {
		m := dram.New(dram.Default())
		for i, b := range blocks {
			m.Read(b, uint64(i)*10)
		}
	})
	r.set("dram.ns_per_read", "ns/read", float64(d)/float64(max(1, len(blocks))))
}

// mshrRun keeps `outstanding` demand misses in flight: every step ticks
// the cost clock, frees the oldest miss and allocates a new one.
func mshrRun(outstanding int) error {
	m := mshr.New(mshr.Config{Entries: 32})
	cycle, block := uint64(1), uint64(1)
	ring := make([]uint64, outstanding)
	for i := range ring {
		m.Allocate(block, true, cycle)
		ring[i] = block
		block++
	}
	for i := 0; i < mshrSteps; i++ {
		cycle += 444 / uint64(outstanding)
		m.Tick(cycle)
		slot := i % outstanding
		if _, err := m.Free(ring[slot], cycle); err != nil {
			return err
		}
		m.Allocate(block, true, cycle)
		ring[slot] = block
		block++
	}
	return nil
}

func probeMSHR(r *run) {
	for _, m := range []struct {
		name        string
		outstanding int
	}{{"isolated", 1}, {"parallel", 16}} {
		var err error
		d := medianOf(r, "mshr", probeReps, func() { err = mshrRun(m.outstanding) })
		r.op(err)
		r.set("mshr.ns_per_miss."+m.name, "ns/miss", float64(d)/mshrSteps)
	}
}

// probeSetup times a one-instruction run: building the machine and
// tearing it down, without an Arena and with a warm one.
func probeSetup(r *run, c cell) {
	cfg := c.config()
	cfg.MaxInstructions = 1
	for _, m := range []struct {
		name  string
		arena *sim.Arena
	}{{"cold", nil}, {"arena", sim.NewArena()}} {
		cfg.Arena = m.arena
		if m.arena != nil {
			_, err := sim.Run(cfg, c.source())
			r.op(err)
		}
		var ds []float64
		for i := 0; i < setupProbeReps; i++ {
			src := c.source()
			var err error
			s := time.Now()
			r.spans.do("sim", 0, 0, func() { _, err = sim.Run(cfg, src) })
			ds = append(ds, float64(time.Since(s))/1e3)
			r.op(err)
		}
		r.set("sim.setup_us."+m.name, "us", median(ds))
	}
}

// probeAllocs counts the heap allocations of one cold run.
func probeAllocs(r *run, c cell) {
	src := c.source()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := sim.Run(c.config(), src)
	runtime.ReadMemStats(&after)
	r.op(err)
	r.set("sim.allocs_per_run", "allocs", float64(after.Mallocs-before.Mallocs))
	r.set("sim.bytes_per_run", "bytes", float64(after.TotalAlloc-before.TotalAlloc))
}

// probeReplay captures the run's L2 demand stream and replays it untimed
// under each policy.
func probeReplay(r *run, c cell) {
	capt := oracle.NewCapture()
	cfg := c.config()
	cfg.Capture = capt
	_, err := sim.Run(cfg, c.source())
	r.op(err)
	log := capt.Log()
	sets, err := cfg.L2.SetCount()
	r.op(err)
	if err != nil || log.Accesses() == 0 {
		r.check(false, "replay probe: no captured accesses")
		return
	}
	assoc := cfg.L2.Assoc
	replays := []struct {
		name string
		run  func() oracle.Result
	}{
		{"lru", func() oracle.Result { return oracle.ReplayOnline(log, sets, assoc, cache.NewLRU()) }},
		{"lin", func() oracle.Result { return oracle.ReplayOnline(log, sets, assoc, core.NewLIN(4)) }},
		{"sbar", func() oracle.Result {
			return oracle.ReplayHybrid(log, sets, assoc, func(mtd *cache.Cache) core.Hybrid {
				return core.NewSBAR(mtd, core.SBARConfig{LeaderSets: 32, PselBits: 6, Lambda: 4,
					Selector: core.NewSimpleStatic(sets, 32), Threads: 1})
			})
		}},
		{"bandit", func() oracle.Result {
			return oracle.ReplayOnline(log, sets, assoc, learn.NewBandit(sets, assoc, c.Seed+5))
		}},
	}
	for _, p := range replays {
		var res oracle.Result
		d := medianOf(r, "cache", probeReps, func() { res = p.run() })
		r.check(res.Accesses == log.Accesses(), "replay %s covered %d of %d accesses", p.name, res.Accesses, log.Accesses())
		r.set("cache.replay_ns_per_access."+p.name, "ns/access", float64(d)/float64(log.Accesses()))
	}
}

// recorder keeps a run's events for re-encoding.
type recorder struct{ events []metrics.Event }

func (rec *recorder) Emit(ev metrics.Event) { rec.events = append(rec.events, ev) }

// countWriter discards bytes and counts them.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// probeEvents records a run's event stream, then encodes it alone with
// the events/v2 binary tracer.
func probeEvents(r *run, c cell) {
	rec := &recorder{}
	cfg := c.config()
	cfg.Trace = rec
	res, err := sim.Run(cfg, c.source())
	r.op(err)
	if err != nil || len(rec.events) == 0 {
		r.check(false, "events probe: no events recorded")
		return
	}
	hdr := res.Header(c.Bench, c.Seed)
	var bytes int
	d := medianOf(r, "metrics", probeReps, func() {
		w := &countWriter{}
		t := metrics.NewBinaryTracer(w, hdr)
		for _, ev := range rec.events {
			t.Emit(ev)
		}
		err = t.Flush()
		bytes = w.n
	})
	r.op(err)
	n := float64(len(rec.events))
	r.set("metrics.events_per_instr", "events/instr", n/float64(res.Instructions))
	r.set("metrics.bytes_per_event", "bytes/event", float64(bytes)/n)
	r.set("metrics.encode_ns_per_event", "ns/event", float64(d)/n)
}

// probeMultiLayer runs the first four of the workload's benchmarks as one
// four-core RunMulti over materialised streams, then each stream alone
// on the single-core engine.
func probeMultiLayer(r *run, in probeInput) {
	var slices [][]trace.Instr
	for i, b := range in.benches[:4] {
		w, ok := workload.ByName(b)
		if !ok {
			r.op(fmt.Errorf("unknown benchmark %q", b))
			return
		}
		slices = append(slices, materialise(w.Build(derive(in.seed, 7, uint64(i))), multiBudget, nil))
	}
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = multiBudget
	var multiD, singleD time.Duration
	var multiN, singleN uint64
	for rep := 0; rep < 2; rep++ {
		srcs := make([]trace.Source, len(slices))
		for i := range slices {
			srcs[i] = trace.NewSliceSource(slices[i])
		}
		var res sim.MultiResult
		var err error
		s := time.Now()
		r.spans.do("sim.multi", 0, 0, func() { res, err = sim.RunMulti(cfg, srcs...) })
		multiD += time.Since(s)
		multiN += res.Instructions()
		r.op(err)
		for i := range slices {
			var one sim.Result
			s := time.Now()
			r.spans.do("sim", 0, 0, func() { one, err = sim.Run(cfg, trace.NewSliceSource(slices[i])) })
			singleD += time.Since(s)
			singleN += one.Instructions
			r.op(err)
		}
	}
	multi := float64(multiD) / float64(multiN)
	single := float64(singleD) / float64(singleN)
	r.set("sim.multi_ns_per_instr", "ns/instr", multi)
	r.set("sim.multi_over_single", "ratio", multi/single)
}
