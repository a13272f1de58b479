package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"mlpcache/internal/audit"
	"mlpcache/internal/bpred"
	"mlpcache/internal/cache"
	"mlpcache/internal/core"
	"mlpcache/internal/cpu"
	"mlpcache/internal/dram"
	"mlpcache/internal/learn"
	"mlpcache/internal/mshr"
	"mlpcache/internal/simerr"
	"mlpcache/internal/stats"
	"mlpcache/internal/trace"
)

// SeriesSet is the Figure 11 time-series bundle: each point covers one
// SampleInterval of retired instructions.
type SeriesSet struct {
	// AvgCostQ is the average quantized MLP-based cost per serviced
	// miss in the interval.
	AvgCostQ stats.Series
	// MPKI is L2 demand misses per thousand retired instructions.
	MPKI stats.Series
	// IPC is retired instructions per cycle over the interval.
	IPC stats.Series
	// UsingLIN samples whether a hybrid policy had LIN selected for
	// follower sets at each interval boundary (1.0) or LRU (0.0);
	// empty for fixed policies.
	UsingLIN stats.Series
	// PselValue samples the selector counter at each interval boundary
	// (SBAR's single PSEL, CBS's global/set-0 counter); empty for fixed
	// policies.
	PselValue stats.Series
	// MSHROccupancy samples the miss file's occupancy at each interval
	// boundary.
	MSHROccupancy stats.Series
}

// Result bundles everything a run measured.
type Result struct {
	// Policy is the replacement configuration's label.
	Policy string
	// Instructions and Cycles are the run totals; IPC their ratio.
	Instructions uint64
	Cycles       uint64
	IPC          float64

	CPU   cpu.Stats
	Bpred bpred.Stats
	L1    cache.Stats
	L2    cache.Stats
	DRAM  dram.Stats
	Mem   MemStats
	MSHR  mshr.Stats

	// CostHist is the Figure 2 mlp-cost distribution (60-cycle bins,
	// final bin 420+) over serviced demand misses.
	CostHist *stats.Histogram
	// Delta is the Table 1 successive-miss cost-delta distribution.
	Delta DeltaStats
	// Hybrid carries the selection counters when a hybrid policy ran.
	Hybrid *core.HybridStats
	// Learn carries the learned-eviction accounting when the bandit or
	// the learned predictor ran (docs/LEARNED.md).
	Learn *learn.Stats
	// Series is non-nil when Config.SampleInterval was set.
	Series *SeriesSet
	// Audit is non-nil when Config.Audit was set: the invariant
	// auditor's report. A run with violations also returns a wrapped
	// simerr.ErrInvariant.
	Audit *audit.Report
}

// MissesServiced returns the number of primary L2 demand misses.
func (r Result) MissesServiced() uint64 { return r.Mem.DemandMisses }

// AvgMLPCost returns the mean MLP-based cost per serviced miss in cycles.
func (r Result) AvgMLPCost() float64 { return r.CostHist.Mean() }

// AvgCostQ returns the mean quantized cost per serviced miss.
func (r Result) AvgCostQ() float64 {
	if r.Mem.DemandMisses == 0 {
		return 0
	}
	return float64(r.Mem.CostQSum) / float64(r.Mem.DemandMisses)
}

// MPKI returns L2 demand misses per thousand instructions.
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 1000 * float64(r.Mem.DemandMisses) / float64(r.Instructions)
}

// CompulsoryPercent returns the compulsory share of demand misses.
func (r Result) CompulsoryPercent() float64 {
	if r.Mem.DemandMisses == 0 {
		return 0
	}
	return 100 * float64(r.Mem.CompulsoryMisses) / float64(r.Mem.DemandMisses)
}

// IPCDeltaPercent returns this run's IPC improvement over a baseline run
// in percent.
func (r Result) IPCDeltaPercent(baseline Result) float64 {
	if baseline.IPC == 0 {
		return 0
	}
	return 100 * (r.IPC - baseline.IPC) / baseline.IPC
}

// MissDeltaPercent returns the change in serviced misses relative to a
// baseline run in percent (negative means fewer misses).
func (r Result) MissDeltaPercent(baseline Result) float64 {
	if baseline.Mem.DemandMisses == 0 {
		return 0
	}
	return 100 * (float64(r.Mem.DemandMisses) - float64(baseline.Mem.DemandMisses)) /
		float64(baseline.Mem.DemandMisses)
}

// MustRun is Run for known-good configurations and sources: it panics on
// any error. Tests, benchmarks and the experiment registry — whose
// inputs are all compiled in — use it to keep call sites terse.
func MustRun(cfg Config, src trace.Source) Result {
	res, err := Run(cfg, src)
	if err != nil {
		panic(err)
	}
	return res
}

// cancelCheckCycles is how many simulated cycles elapse between polls of
// the run context. At the simulator's measured throughput this bounds
// cancellation latency to a few milliseconds of wall time while keeping
// the hot loop's cost to one parked-threshold compare per cycle — the
// same trick the snapshot path uses (see nextSnap below). Fast-forward
// jumps only shorten the interval, never lengthen it.
const cancelCheckCycles = 1 << 16

// Run executes the instruction source with no cancellation; it is
// RunContext under a background context.
func Run(cfg Config, src trace.Source) (Result, error) {
	return RunContext(context.Background(), cfg, src)
}

// RunContext executes the instruction source on the configured machine
// until MaxInstructions retire, the source drains, the cycle guard
// trips, or ctx is done. It is the machine's one run loop with a single
// core, projected onto Result. Cancellation is cooperative: the run loop
// polls ctx.Done every cancelCheckCycles simulated cycles and returns a
// wrapped simerr.ErrCancelled (which also matches the context's cause
// under errors.Is) with an empty Result. A background context costs one
// parked-threshold compare per cycle.
//
// Errors are typed (see the simerr package): an invalid configuration
// returns a wrapped simerr.ErrBadConfig before anything is built, a
// source whose Err method reports a decode failure yields that error
// (wrapped simerr.ErrCorruptTrace for the trace reader), an MSHR
// protocol violation yields simerr.ErrMSHRLeak, and audit violations
// yield simerr.ErrInvariant alongside the partial Result. Any panic
// escaping the machine's internals is converted to a wrapped
// simerr.ErrInternal rather than unwinding into the caller.
func RunContext(ctx context.Context, cfg Config, src trace.Source) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return simulate(ctx, cfg, []trace.Source{src}, (*machine).result)
}

// machine is one run: the memory hierarchy, one core per source, and
// what the run loop accumulates.
type machine struct {
	cfg     Config
	mem     *memHierarchy
	hybrid  core.Hybrid
	cpus    []*cpu.CPU
	now     uint64 // the final cycle
	series  *SeriesSet
	auditor *audit.Auditor
	report  *audit.Report
}

// simulate builds the machine for a validated configuration, runs it and
// projects it onto the caller's result type. It is the one boundary every
// run shares: the cancel-before-start check, the recover-to-ErrInternal
// conversion, the deferred source-error check, the audit report, and the
// return of the machine's components to the arena.
func simulate[R any](ctx context.Context, cfg Config, srcs []trace.Source, project func(*machine) R) (res R, err error) {
	if done := ctx.Done(); done != nil {
		select {
		case <-done:
			return res, simerr.Wrap(simerr.ErrCancelled, ctx.Err(), "sim: run cancelled before start")
		default:
		}
	}
	defer func() {
		if r := recover(); r != nil {
			var zero R
			res = zero
			if e, ok := r.(error); ok {
				err = simerr.Wrap(simerr.ErrInternal, e, "sim: panic during run")
			} else {
				err = simerr.New(simerr.ErrInternal, "sim: panic during run: %v", r)
			}
		}
	}()
	m, err := build(cfg, srcs)
	if err != nil {
		return res, err
	}
	if err := m.run(ctx); err != nil {
		return res, err
	}
	if m.auditor != nil {
		m.auditor.CheckNow(m.now)
		m.report = m.auditor.Report()
	}
	res = project(m)
	for _, s := range srcs {
		if es, ok := s.(interface{ Err() error }); ok {
			if err := es.Err(); err != nil {
				return res, err
			}
		}
	}
	if m.report != nil {
		if err := m.report.Err(); err != nil {
			return res, err
		}
	}
	// The result is fully assembled (stats copied by value, histograms
	// kept — the arena never pools them), so the machine's bulk
	// components can go back to the pool for the next run.
	cfg.Arena.release(m.mem)
	cfg.Arena.putCPUs(m.cpus...)
	return res, nil
}

// build constructs the machine: the shared L2 and its replacement
// engine, the memory hierarchy with one port per source, one core per
// port, and the optional auditor and interval series.
func build(cfg Config, srcs []trace.Source) (*machine, error) {
	cores := len(srcs)
	l2, hybrid, err := buildL2(cfg, cores)
	if err != nil {
		return nil, err
	}
	mem := newMemHierarchy(cfg, l2, hybrid, cores)
	m := &machine{
		cfg:    cfg,
		mem:    mem,
		hybrid: hybrid,
		cpus:   make([]*cpu.CPU, cores),
	}
	for i, src := range srcs {
		m.cpus[i] = cfg.Arena.getCPU(cfg.CPU, mem.ports[i], limitBudget(src, cfg.MaxInstructions))
	}
	if cfg.Audit {
		m.auditor = buildAuditor(cfg, mem, hybrid)
	}
	if cfg.SampleInterval > 0 {
		m.series = &SeriesSet{
			AvgCostQ:      stats.Series{Name: "avg-costq-per-miss"},
			MPKI:          stats.Series{Name: "mpki"},
			IPC:           stats.Series{Name: "ipc"},
			UsingLIN:      stats.Series{Name: "lin-selected"},
			PselValue:     stats.Series{Name: "psel-value"},
			MSHROccupancy: stats.Series{Name: "mshr-occupancy"},
		}
	}
	return m, nil
}

// run is the cycle loop: memory tick, per-core CPU cycles in core order,
// the MSHR throttle, audit, interval series, snapshots, epoch, finish
// check and stall fast-forward. Each core retires up to MaxInstructions
// from its own source; the cores' own Retired counters hold the per-core
// totals.
func (m *machine) run(ctx context.Context) error {
	cfg, mem, hybrid, cpus := &m.cfg, m.mem, m.hybrid, m.cpus
	auditor, series := m.auditor, m.series
	maxCycles := cycleGuard(m.cfg, len(cpus))
	done := ctx.Done()
	var (
		now         uint64
		retired     uint64 // total across cores, for the sample and epoch schedules
		nextSample  = cfg.SampleInterval
		sampleCycle uint64
		nextEpoch   = cfg.EpochInstructions
		// Snapshot emission is disabled by parking the threshold at the
		// top of the range, keeping the hot loop's check to one compare.
		nextSnap = ^uint64(0)
		snap     snapState
		// Cancellation polls are parked the same way when the context
		// cannot be cancelled (context.Background().Done() is nil).
		nextCancel = ^uint64(0)
	)
	if cfg.SnapshotInterval > 0 && mem.tr != nil {
		nextSnap = cfg.SnapshotInterval
	}
	if done != nil {
		nextCancel = cancelCheckCycles
	}
	for now = 1; now <= maxCycles; now++ {
		if now >= nextCancel {
			select {
			case <-done:
				return simerr.Wrap(simerr.ErrCancelled, ctx.Err(), fmt.Sprintf("sim: run cancelled at cycle %d", now))
			default:
			}
			nextCancel = now + cancelCheckCycles
		}
		if err := mem.Tick(now); err != nil {
			return err
		}
		anyWork := false
		for _, c := range cpus {
			retired += uint64(c.Cycle(now))
			if c.DidWork() {
				anyWork = true
			}
		}
		if capacity, due := mem.inj.ThrottleDue(retired); due {
			if err := mem.throttle(capacity); err != nil {
				return err
			}
		}
		if auditor != nil {
			auditor.MaybeCheck(now)
		}
		if series != nil && retired >= nextSample {
			m.sample(now, retired, now-sampleCycle)
			sampleCycle = now
			nextSample += cfg.SampleInterval
		}
		if retired >= nextSnap {
			mem.emitSnapshot(now, retired, &snap)
			nextSnap += cfg.SnapshotInterval
		}
		if hybrid != nil && cfg.EpochInstructions > 0 && retired >= nextEpoch {
			hybrid.AdvanceEpoch()
			nextEpoch += cfg.EpochInstructions
		}
		if mem.fills.Len() == 0 && finished(cpus) {
			break
		}
		// Fast-forward through stall cycles: when no core made progress
		// this cycle, nothing changes until the earliest completion event
		// across the cores or the next DRAM fill.
		if !anyWork && !cfg.DisableFastForward {
			wake := mem.nextFill()
			for _, c := range cpus {
				if w := c.NextEvent(now); w < wake {
					wake = w
				}
			}
			if wake == ^uint64(0) {
				break // wedged: nothing in flight, nothing to do
			}
			if wake > now+1 {
				for _, c := range cpus {
					c.NoteSkipped(wake - now - 1)
				}
				now = wake - 1
			}
		}
	}
	m.now = now
	return nil
}

// finished reports whether every core has drained its source and window.
func finished(cpus []*cpu.CPU) bool {
	for _, c := range cpus {
		if !c.Finished() {
			return false
		}
	}
	return true
}

// sample appends one Figure 11 point per series: the interval's IPC over
// intCycles, MPKI and mean quantized cost, plus the selector state and
// MSHR occupancy at the boundary.
func (m *machine) sample(now, retired, intCycles uint64) {
	ser, mem := m.series, m.mem
	misses, costQSum := mem.takeInterval()
	intInstr := m.cfg.SampleInterval
	if intCycles > 0 {
		ser.IPC.Add(retired, float64(intInstr)/float64(intCycles))
	}
	ser.MPKI.Add(retired, 1000*float64(misses)/float64(intInstr))
	avg := 0.0
	if misses > 0 {
		avg = float64(costQSum) / float64(misses)
	}
	ser.AvgCostQ.Add(retired, avg)
	if m.hybrid != nil {
		v := 0.0
		if m.hybrid.UsingLIN(1) {
			v = 1.0
		}
		ser.UsingLIN.Add(retired, v)
		if psel, ok := pselValueOf(m.hybrid); ok {
			ser.PselValue.Add(retired, float64(psel))
		}
	}
	ser.MSHROccupancy.Add(retired, float64(mem.occupancy()))
}

// result projects a one-core machine onto Result.
func (m *machine) result() Result {
	p, c, mem := m.mem.ports[0], m.cpus[0], m.mem
	res := Result{
		Policy:       m.cfg.Policy.String(),
		Instructions: c.Stats().Retired,
		Cycles:       m.now,
		CPU:          c.Stats(),
		Bpred:        c.PredictorStats(),
		L1:           p.l1.Stats(),
		L2:           mem.l2.Stats(),
		DRAM:         mem.dram.Stats(),
		Mem:          mem.totals(),
		MSHR:         p.mshr.Stats(),
		CostHist:     mem.costHist,
		Delta:        mem.delta,
		Hybrid:       m.hybridStats(),
		Learn:        learnStatsOf(mem.l2.Policy()),
		Series:       m.series,
		Audit:        m.report,
	}
	if m.now > 0 {
		res.IPC = float64(res.Instructions) / float64(m.now)
	}
	return res
}

// hybridStats returns the hybrid engine's selection counters, or nil
// when a fixed policy ran.
func (m *machine) hybridStats() *core.HybridStats {
	if m.hybrid == nil {
		return nil
	}
	hs := statsOf(m.hybrid)
	return &hs
}

// limitBudget bounds src to a budget of n instructions (0 = unbounded).
// A budget beyond the int range saturates instead of turning negative,
// which would end the run before its first instruction.
func limitBudget(src trace.Source, n uint64) trace.Source {
	if n == 0 {
		return src
	}
	return trace.NewLimit(src, int(min(n, math.MaxInt)))
}

// cycleGuard is the cycle limit of a run on the given number of cores:
// cfg.MaxCycles when set, otherwise a generous 2048 cycles per budgeted
// instruction and core plus 1M (even a pure chain of isolated misses
// retires one instruction per ~460 cycles, and contention can serialize
// the cores' miss chains). The allowance saturates at math.MaxInt64
// instead of wrapping to a small limit that would cut the run short.
func cycleGuard(cfg Config, cores int) uint64 {
	if cfg.MaxCycles != 0 {
		return cfg.MaxCycles
	}
	if cfg.MaxInstructions == 0 {
		return 1 << 40
	}
	hi, lo := bits.Mul64(cfg.MaxInstructions, uint64(cores)*2048)
	guard, carry := bits.Add64(lo, 1_000_000, 0)
	if hi != 0 || carry != 0 || guard > math.MaxInt64 {
		return math.MaxInt64
	}
	return guard
}

func statsOf(h core.Hybrid) core.HybridStats {
	switch v := h.(type) {
	case *core.SBAR:
		return v.Stats()
	case *core.CBS:
		return v.Stats()
	default:
		return core.HybridStats{}
	}
}

// learnStatsOf extracts the learned-eviction accounting when the L2's
// policy is one of internal/learn's (nil otherwise) — the Learn
// analogue of statsOf.
func learnStatsOf(p cache.Policy) *learn.Stats {
	switch v := p.(type) {
	case *learn.Bandit:
		s := v.Stats()
		return &s
	case *learn.Predictor:
		s := v.Stats()
		return &s
	default:
		return nil
	}
}

// pselValueOf returns the hybrid's selector counter value: SBAR's single
// PSEL, or CBS's set-0 counter (the global counter under CBSGlobal).
func pselValueOf(h core.Hybrid) (int, bool) {
	switch v := h.(type) {
	case *core.SBAR:
		return v.Psel().Value(), true
	case *core.CBS:
		return v.Psel(0).Value(), true
	default:
		return 0, false
	}
}

// Summary renders a one-paragraph textual report of a result.
func (r Result) Summary() string {
	return fmt.Sprintf(
		"policy=%s instr=%d cycles=%d IPC=%.4f L2miss=%d (merged %d, compulsory %.1f%%) "+
			"MPKI=%.2f avg-mlp-cost=%.1f mem-stall=%d cycles",
		r.Policy, r.Instructions, r.Cycles, r.IPC,
		r.Mem.DemandMisses, r.Mem.MergedMisses, r.CompulsoryPercent(),
		r.MPKI(), r.AvgMLPCost(), r.CPU.MemStallCycles)
}
