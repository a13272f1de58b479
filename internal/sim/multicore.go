package sim

import (
	"context"
	"fmt"

	"mlpcache/internal/audit"
	"mlpcache/internal/blockmap"
	"mlpcache/internal/bpred"
	"mlpcache/internal/cache"
	"mlpcache/internal/core"
	"mlpcache/internal/cpu"
	"mlpcache/internal/dram"
	"mlpcache/internal/learn"
	"mlpcache/internal/metrics"
	"mlpcache/internal/mshr"
	"mlpcache/internal/simerr"
	"mlpcache/internal/stats"
	"mlpcache/internal/trace"
)

// MaxCores bounds a multi-core run. Sharer sets are a single uint64
// bitmask, so the limit is architectural, not a tuning knob.
const MaxCores = 64

// multiTracer stamps outgoing events with the current cycle and the
// issuing core before forwarding them. It is the multi-core analogue of
// clockTracer: the memory system keeps now and tid current so victim,
// contest and miss-lifecycle events carry the thread that caused them.
// psel.update events are exempt from tid stamping — the selector is
// partitioned per thread and SBAR tags those events with the counter's
// owner itself, which can legitimately differ from the core whose fill
// is being serviced (a deferred leader-contest decrement).
type multiTracer struct {
	dst metrics.Tracer
	now uint64
	tid int
}

func (t *multiTracer) Emit(ev metrics.Event) {
	if ev.Cycle == 0 {
		ev.Cycle = t.now
	}
	if ev.Tid == 0 && ev.Type != metrics.EventPselUpdate {
		ev.Tid = t.tid
	}
	t.dst.Emit(ev)
}

// multiFill is a pending DRAM→L2 fill in a multi-core run. owner is the
// core whose access issued the primary miss; sharers is the bitmask of
// cores with an MSHR entry waiting on the block (owner's bit included).
type multiFill struct {
	done    uint64
	addr    uint64
	write   bool
	owner   int
	sharers uint64
}

// multiFillHeap is fillHeap for multiFill: the same inlined min-heap
// ordered by completion cycle, with the same tail-nil discipline.
type multiFillHeap struct{ h []*multiFill }

func (h *multiFillHeap) Len() int         { return len(h.h) }
func (h *multiFillHeap) Peek() *multiFill { return h.h[0] }

func (h *multiFillHeap) Push(f *multiFill) {
	h.h = append(h.h, f)
	j := len(h.h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if h.h[j].done >= h.h[i].done {
			break
		}
		h.h[i], h.h[j] = h.h[j], h.h[i]
		j = i
	}
}

func (h *multiFillHeap) Pop() *multiFill {
	n := len(h.h) - 1
	h.h[0], h.h[n] = h.h[n], h.h[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.h[j2].done < h.h[j].done {
			j = j2
		}
		if h.h[j].done >= h.h[i].done {
			break
		}
		h.h[i], h.h[j] = h.h[j], h.h[i]
		i = j
	}
	out := h.h[n]
	h.h[n] = nil
	h.h = h.h[:n]
	return out
}

// corePort is one core's private slice of the memory system: its own L1
// and MSHR file in front of the shared L2. It implements cpu.MemSystem.
// Keeping the MSHR per core keeps Algorithm 1's cost clock per thread:
// each cycle divides among that core's own outstanding demand misses, so
// mlp-cost measures the issuing thread's overlap, not the whole chip's.
type corePort struct {
	m    *multiMemSystem
	tid  int
	l1   *cache.Cache
	mshr *mshr.MSHR

	mstats   MemStats // per-core counters (prefetch fields stay zero)
	costSum  float64  // summed mlp-cost over this core's serviced misses
	costHist *stats.Histogram

	// fillDue is set by accessL2 to the service cycle of the fill this
	// core just started waiting on (a primary miss or a cross-core
	// merge), and zero otherwise. The parallel engine reads it after
	// each access to schedule its fill barriers; the serial engine
	// ignores it.
	fillDue uint64
}

// Access implements cpu.MemSystem for one core: the private L1 probe,
// then the shared-L2 path. The split matters to the parallel engine,
// which wraps accessL2 in its ordering protocol while L1 hits stay
// lock-free; the serial engine's behaviour is unchanged.
func (p *corePort) Access(addr uint64, write bool, now uint64) (uint64, bool) {
	if p.l1.Probe(addr, write) {
		return now + p.m.cfg.L1Lat, true
	}
	return p.accessL2(addr, write, now)
}

// accessL2 is the shared-state half of an access. It mirrors
// memSystem.Access step for step (so a one-core run is bit-identical to
// the single-core engine) with the capture, prefetch and fault-injection
// branches — all rejected by RunMulti's validation — removed, and one
// addition: a miss on a block another core already has in flight
// allocates a primary entry in this core's own MSHR and joins the fill's
// sharer set, so the waiting thread pays its own cost clock for the
// overlap (a cross-core merge). In a parallel run the caller holds the
// engine's commit lock and has established this access's serial
// position (docs/MULTICORE.md "Determinism contract").
func (p *corePort) accessL2(addr uint64, write bool, now uint64) (uint64, bool) {
	m := p.m
	p.fillDue = 0
	if m.tr != nil {
		m.tr.now = now
		m.tr.tid = p.tid
	}
	if m.sbar != nil {
		m.sbar.SetThread(p.tid)
	}
	l2Hit := m.l2.Probe(addr, false)
	block := m.l2.BlockOf(addr)
	if l2Hit {
		if m.hybrid != nil {
			m.hybrid.OnAccess(addr, write, true, false)
		}
		p.fillL1(addr, write)
		return now + m.cfg.L1Lat + m.cfg.L2Lat, true
	}
	// L2 demand miss.
	if f, ok := m.inflight.Get(block); ok {
		bit := uint64(1) << uint(p.tid)
		if f.sharers&bit == 0 {
			// Another core's miss is already fetching the block. This
			// core still waits on DRAM, so it allocates a primary entry
			// in its own MSHR — starting its own cost clock — and joins
			// the fill's sharer set.
			if p.mshr.Full() {
				return 0, false
			}
			p.mshr.Allocate(block, true, now)
			f.sharers |= bit
			m.crossMerges++
		} else {
			p.mshr.Allocate(block, true, now)
		}
		f.write = f.write || write
		if m.tr != nil {
			m.tr.Emit(metrics.Event{Type: metrics.EventMissMerge, Addr: addr, Block: block})
		}
		p.mstats.MergedMisses++
		if m.hybrid != nil {
			m.hybrid.OnAccess(addr, write, false, false)
		}
		p.fillDue = f.done
		return f.done, true
	}
	if p.mshr.Full() {
		return 0, false // structural stall; the core retries
	}
	p.mshr.Allocate(block, true, now)
	if m.tr != nil {
		m.tr.Emit(metrics.Event{Type: metrics.EventMissIssue, Addr: addr, Block: block})
	}
	if m.hybrid != nil {
		m.hybrid.OnAccess(addr, write, false, true)
	}
	p.mstats.DemandMisses++
	p.noteSeen(block)
	done := m.dram.Read(block, now+m.cfg.L1Lat+m.cfg.L2Lat)
	f := m.newFill(done, addr, write, p.tid)
	m.inflight.Put(block, f)
	m.fills.Push(f)
	p.fillDue = done
	return done, true
}

// noteSeen records a demand miss on the block in the shared footprint
// store, crediting the compulsory miss to the core that touched the
// block first.
func (p *corePort) noteSeen(block uint64) {
	info, _ := p.m.tracked.Get(block)
	if !info.seen {
		info.seen = true
		p.m.tracked.Put(block, info)
		p.mstats.CompulsoryMisses++
	}
}

// fillL1 installs the block into this core's L1, sinking any dirty
// victim into the shared L2's dirty bit.
func (p *corePort) fillL1(addr uint64, write bool) {
	ev, evicted := p.l1.Fill(addr, 0, write)
	if evicted && ev.Dirty {
		if !p.m.l2.MarkDirty(ev.Block * p.l1.Config().BlockBytes) {
			p.mstats.L1WritebackDrops++
		}
	}
}

// multiMemSystem is the contended memory system: per-core L1s and MSHR
// files in front of one shared L2 and one shared DRAM.
type multiMemSystem struct {
	cfg    Config
	l2     *cache.Cache
	dram   *dram.DRAM
	hybrid core.Hybrid
	// sbar is the hybrid downcast when the selector is partitioned per
	// thread (SBAR with Threads > 1); nil otherwise (DIP and CBS keep a
	// single shared counter, as documented in docs/MULTICORE.md).
	sbar *core.SBAR

	ports []*corePort

	fills    multiFillHeap
	inflight *blockmap.Table[*multiFill] // block → pending fill
	fillFree []*multiFill

	// tracked is the shared per-block footprint store: compulsory-miss
	// classification and Table 1 deltas are block properties, so they
	// live chip-wide even though cost accounting is per thread.
	tracked *blockmap.Table[blockInfo]

	costHist *stats.Histogram // aggregate Figure 2 distribution
	delta    DeltaStats       // Table 1 deltas over the shared block store

	// crossMerges counts demand misses that joined another core's
	// in-flight miss (exported as multicore.cross_core_merges).
	crossMerges uint64

	tr *multiTracer
}

func newMultiMemSystem(cfg Config, l2 *cache.Cache, hybrid core.Hybrid, cores int) *multiMemSystem {
	m := &multiMemSystem{
		cfg:      cfg,
		l2:       l2,
		dram:     dram.New(cfg.DRAM),
		hybrid:   hybrid,
		inflight: cfg.Arena.getMultiTable(cores * cfg.MSHR.Entries),
		tracked:  cfg.Arena.getTrackedTable(256),
		costHist: stats.NewHistogram(60, 8),
	}
	m.fills.h, m.fillFree = cfg.Arena.getMultiFills()
	if s, ok := hybrid.(*core.SBAR); ok && s.Threads() > 1 {
		m.sbar = s
	}
	if cfg.Trace != nil {
		m.tr = &multiTracer{dst: cfg.Trace}
		attachTracer(l2, hybrid, m.tr)
	}
	// One batch allocation for the port structs themselves; the slice of
	// pointers keeps every exported surface unchanged.
	backing := make([]corePort, cores)
	m.ports = make([]*corePort, cores)
	for i := 0; i < cores; i++ {
		p := &backing[i]
		*p = corePort{
			m:        m,
			tid:      i,
			l1:       cfg.Arena.getCache(cfg.L1, cache.NewLRU()),
			mshr:     cfg.Arena.getMSHR(cfg.MSHR),
			costHist: stats.NewHistogram(60, 8),
		}
		m.ports[i] = p
	}
	return m
}

// newFill builds a pending fill with the owner's sharer bit set,
// recycling from the freelist as the single-core engine does.
func (m *multiMemSystem) newFill(done, addr uint64, write bool, owner int) *multiFill {
	var f *multiFill
	if n := len(m.fillFree); n > 0 {
		f = m.fillFree[n-1]
		m.fillFree[n-1] = nil
		m.fillFree = m.fillFree[:n-1]
	} else {
		f = new(multiFill)
	}
	*f = multiFill{done: done, addr: addr, write: write, owner: owner, sharers: 1 << uint(owner)}
	return f
}

// Tick advances the memory side by one cycle: every core's MSHR cost
// clock runs (Algorithm 1, per thread), then any DRAM fills due this
// cycle install into the shared hierarchy.
func (m *multiMemSystem) Tick(now uint64) error {
	if m.tr != nil {
		m.tr.now = now
	}
	for _, p := range m.ports {
		p.mshr.Tick(now)
	}
	for m.fills.Len() > 0 && m.fills.Peek().done <= now {
		f := m.fills.Pop()
		if err := m.service(f, now); err != nil {
			return err
		}
		m.fillFree = append(m.fillFree, f)
	}
	return nil
}

// service completes one fill. The owning core's MSHR entry yields the
// miss's mlp-cost — the thread-tagged cost the paper's accounting needs —
// and feeds the owner's histogram plus the aggregate one. Every other
// sharer frees its own entry too (its clock measured its own wait, which
// already shaped the costs of that core's concurrent misses) but the
// block's stored cost is the owner's. The block installs into the shared
// L2 and the owner's L1; other sharers refetch from L2 on their next
// touch.
func (m *multiMemSystem) service(f *multiFill, now uint64) error {
	block := m.l2.BlockOf(f.addr)
	m.inflight.Delete(block)
	p := m.ports[f.owner]
	if m.tr != nil {
		m.tr.tid = f.owner
	}
	if m.sbar != nil {
		m.sbar.SetThread(f.owner)
	}
	cost, err := p.mshr.Free(block, now)
	if err != nil {
		return err
	}
	for rest := f.sharers &^ (1 << uint(f.owner)); rest != 0; rest &= rest - 1 {
		tid := trailingZeros(rest)
		if _, err := m.ports[tid].mshr.Free(block, now); err != nil {
			return err
		}
	}

	m.costHist.Add(cost)
	p.costHist.Add(cost)
	p.costSum += cost
	if m.cfg.TrackDeltas {
		info, _ := m.tracked.Get(block)
		if info.hasCost {
			d := cost - info.lastCost
			if d < 0 {
				d = -d
			}
			m.delta.add(d)
		}
		info.hasCost = true
		info.lastCost = cost
		m.tracked.Put(block, info)
	}

	costQ := core.Quantize(cost)
	if m.tr != nil {
		m.tr.Emit(metrics.Event{
			Type: metrics.EventMissFill, Addr: f.addr, Block: block,
			Cost: cost, CostQ: int(costQ),
		})
	}
	if m.cfg.MissHook != nil {
		m.cfg.MissHook(f.addr, costQ)
	}
	p.mstats.CostQSum += uint64(costQ)

	ev, evicted := m.l2.Fill(f.addr, costQ, false)
	if evicted && ev.Dirty && m.cfg.ModelWritebacks {
		m.dram.Write(ev.Block, now)
	}
	if m.hybrid != nil {
		m.hybrid.OnFill(f.addr, costQ)
	}
	p.fillL1(f.addr, f.write)
	return nil
}

// trailingZeros returns the index of the lowest set bit (v must be
// non-zero). Inlined instead of math/bits to keep the import surface of
// the hot path unchanged.
func trailingZeros(v uint64) int {
	n := 0
	for v&1 == 0 {
		v >>= 1
		n++
	}
	return n
}

// drainInflight reports whether misses are still outstanding.
func (m *multiMemSystem) drainInflight() bool { return m.fills.Len() > 0 }

// nextFill returns the cycle of the earliest pending DRAM fill, or
// ^uint64(0) when none is outstanding.
func (m *multiMemSystem) nextFill() uint64 {
	if m.fills.Len() == 0 {
		return ^uint64(0)
	}
	return m.fills.Peek().done
}

// CoreResult is one core's slice of a multi-core run.
type CoreResult struct {
	// Instructions and IPC are this core's retirement totals over the
	// run's shared cycle count.
	Instructions uint64
	IPC          float64

	CPU   cpu.Stats
	Bpred bpred.Stats
	L1    cache.Stats
	MSHR  mshr.Stats
	// Mem holds this core's share of the memory-side counters: misses it
	// issued, merges it joined, compulsory misses it touched first, and
	// the quantized cost its own misses accrued. Prefetch fields and
	// TrackedBlocks stay zero (the footprint store is chip-wide).
	Mem MemStats
	// CostHist is this core's Figure 2 mlp-cost distribution; CostSum its
	// raw summed cost.
	CostHist *stats.Histogram
	CostSum  float64
}

// MPKI returns this core's L2 demand misses per thousand of its own
// retired instructions.
func (c CoreResult) MPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return 1000 * float64(c.Mem.DemandMisses) / float64(c.Instructions)
}

// AvgCostQ returns this core's mean quantized cost per serviced miss.
func (c CoreResult) AvgCostQ() float64 {
	if c.Mem.DemandMisses == 0 {
		return 0
	}
	return float64(c.Mem.CostQSum) / float64(c.Mem.DemandMisses)
}

// AvgMLPCost returns this core's mean mlp-based cost per serviced miss.
func (c CoreResult) AvgMLPCost() float64 {
	if c.Mem.DemandMisses == 0 {
		return 0
	}
	return c.CostSum / float64(c.Mem.DemandMisses)
}

// MultiResult bundles everything a multi-core run measured: per-core
// slices plus the shared-L2 aggregates.
type MultiResult struct {
	// Policy is the replacement configuration's label.
	Policy string
	// Cycles is the shared clock's final value.
	Cycles uint64

	// Cores holds one entry per core, in core order.
	Cores []CoreResult

	L2   cache.Stats
	DRAM dram.Stats
	// Mem is the chip-wide aggregate: per-core counters summed, with
	// TrackedBlocks stamped from the shared footprint store.
	Mem MemStats
	// CrossCoreMerges counts demand misses that joined another core's
	// in-flight miss for the same block.
	CrossCoreMerges uint64

	// CostHist is the aggregate Figure 2 distribution; Delta the Table 1
	// successive-miss deltas over the shared block store.
	CostHist *stats.Histogram
	Delta    DeltaStats

	// Hybrid carries the selection counters when a hybrid policy ran.
	Hybrid *core.HybridStats
	// Learn carries the learned-eviction accounting when the bandit or
	// the learned predictor drove the shared L2 (docs/LEARNED.md).
	Learn *learn.Stats
	// PselValues holds each thread's final selector value when the
	// policy partitions its PSEL per thread (SBAR); nil otherwise.
	PselValues []int
	// Audit is non-nil when Config.Audit was set.
	Audit *audit.Report
	// Parallel is non-nil when the parallel engine ran (Config.Parallel,
	// docs/MULTICORE.md "Determinism contract"). It carries only
	// schedule-independent counters, so two parallel runs of the same
	// configuration produce DeepEqual results.
	Parallel *ParallelStats
}

// Instructions returns total retired instructions across cores.
func (r MultiResult) Instructions() uint64 {
	var n uint64
	for _, c := range r.Cores {
		n += c.Instructions
	}
	return n
}

// IPC returns aggregate throughput: total retired instructions per
// shared-clock cycle.
func (r MultiResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions()) / float64(r.Cycles)
}

// MissesServiced returns aggregate primary L2 demand misses.
func (r MultiResult) MissesServiced() uint64 { return r.Mem.DemandMisses }

// MPKI returns aggregate L2 demand misses per thousand instructions.
func (r MultiResult) MPKI() float64 {
	instr := r.Instructions()
	if instr == 0 {
		return 0
	}
	return 1000 * float64(r.Mem.DemandMisses) / float64(instr)
}

// AvgCostQ returns the aggregate mean quantized cost per serviced miss.
func (r MultiResult) AvgCostQ() float64 {
	if r.Mem.DemandMisses == 0 {
		return 0
	}
	return float64(r.Mem.CostQSum) / float64(r.Mem.DemandMisses)
}

// AvgMLPCost returns the aggregate mean mlp-based cost per miss.
func (r MultiResult) AvgMLPCost() float64 { return r.CostHist.Mean() }

// Summary renders a one-paragraph textual report.
func (r MultiResult) Summary() string {
	return fmt.Sprintf(
		"policy=%s cores=%d instr=%d cycles=%d IPC=%.4f L2miss=%d (merged %d, cross-core %d) "+
			"MPKI=%.2f avg-mlp-cost=%.1f",
		r.Policy, len(r.Cores), r.Instructions(), r.Cycles, r.IPC(),
		r.Mem.DemandMisses, r.Mem.MergedMisses, r.CrossCoreMerges,
		r.MPKI(), r.AvgMLPCost())
}

// validateMulti rejects the single-core-only features a multi-core run
// does not support, with typed errors so CLIs can report them cleanly.
func validateMulti(cfg Config, cores int) error {
	if cores < 1 || cores > MaxCores {
		return simerr.New(simerr.ErrBadConfig, "sim: multicore run needs 1..%d sources, got %d", MaxCores, cores)
	}
	switch {
	case cfg.Prefetch != nil:
		return simerr.New(simerr.ErrBadConfig, "sim: multicore run does not support prefetching")
	case cfg.Capture != nil:
		return simerr.New(simerr.ErrBadConfig, "sim: multicore run does not support access capture")
	case cfg.Faults != nil:
		return simerr.New(simerr.ErrBadConfig, "sim: multicore run does not support fault injection")
	case cfg.SampleInterval > 0:
		return simerr.New(simerr.ErrBadConfig, "sim: multicore run does not support the interval series (SampleInterval)")
	case cfg.SnapshotInterval > 0:
		return simerr.New(simerr.ErrBadConfig, "sim: multicore run does not support snapshot emission (SnapshotInterval)")
	}
	return nil
}

// RunMulti executes one instruction source per core on N cores sharing
// the contended L2; it is RunMultiContext under a background context.
func RunMulti(cfg Config, srcs ...trace.Source) (MultiResult, error) {
	return RunMultiContext(context.Background(), cfg, srcs...)
}

// RunMultiContext is the multi-core run loop: N cores, each with a
// private L1 and MSHR file, sharing one L2, one DRAM and one replacement
// engine. Its cycle structure mirrors RunContext exactly — memory tick,
// per-core CPU cycles in core order, audit, epoch, finish check, stall
// fast-forward — so a one-core run reproduces the single-core engine's
// Result bit for bit (asserted by TestMulticoreSingleCoreEquivalence).
// Each core retires up to MaxInstructions from its own source.
//
// Multi-core runs reject prefetching, access capture, fault injection
// and the interval/snapshot series (validateMulti); everything else —
// tracing, auditing, epochs, MissHook — carries over.
func RunMultiContext(ctx context.Context, cfg Config, srcs ...trace.Source) (res MultiResult, err error) {
	if err := cfg.Validate(); err != nil {
		return MultiResult{}, err
	}
	if err := validateMulti(cfg, len(srcs)); err != nil {
		return MultiResult{}, err
	}
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return MultiResult{}, simerr.Wrap(simerr.ErrCancelled, ctx.Err(), "sim: run cancelled before start")
		default:
		}
	}
	defer func() {
		if r := recover(); r != nil {
			res = MultiResult{}
			if e, ok := r.(error); ok {
				err = simerr.Wrap(simerr.ErrInternal, e, "sim: panic during run")
			} else {
				err = simerr.New(simerr.ErrInternal, "sim: panic during run: %v", r)
			}
		}
	}()
	cores := len(srcs)
	parallel, err := resolveParallel(cfg, cores)
	if err != nil {
		return MultiResult{}, err
	}
	orig := make([]trace.Source, cores)
	copy(orig, srcs)
	limited := make([]trace.Source, cores)
	for i, src := range srcs {
		limited[i] = limitBudget(src, cfg.MaxInstructions)
	}
	maxCycles := cycleGuard(cfg, cores)

	l2, hybrid, err := buildL2(cfg, cores)
	if err != nil {
		return MultiResult{}, err
	}
	mem := newMultiMemSystem(cfg, l2, hybrid, cores)
	if parallel {
		return runMultiParallel(ctx, cfg, mem, hybrid, limited, orig, maxCycles)
	}
	cpus := make([]*cpu.CPU, cores)
	for i, src := range limited {
		cpus[i] = cfg.Arena.getCPU(cfg.CPU, mem.ports[i], src)
	}
	var auditor *audit.Auditor
	if cfg.Audit {
		auditor = buildMultiAuditor(cfg, mem, hybrid)
	}

	var (
		now        uint64
		retired    uint64 // total across cores, for the epoch schedule
		perRetired = make([]uint64, cores)
		nextEpoch  = cfg.EpochInstructions
		nextCancel = ^uint64(0)
	)
	if done != nil {
		nextCancel = cancelCheckCycles
	}
	for now = 1; now <= maxCycles; now++ {
		if now >= nextCancel {
			select {
			case <-done:
				return MultiResult{}, simerr.Wrap(simerr.ErrCancelled, ctx.Err(),
					fmt.Sprintf("sim: run cancelled at cycle %d", now))
			default:
			}
			nextCancel = now + cancelCheckCycles
		}
		if err := mem.Tick(now); err != nil {
			return MultiResult{}, err
		}
		anyWork := false
		for i, c := range cpus {
			n := uint64(c.Cycle(now))
			perRetired[i] += n
			retired += n
			if c.DidWork() {
				anyWork = true
			}
		}
		if auditor != nil {
			auditor.MaybeCheck(now)
		}
		if hybrid != nil && cfg.EpochInstructions > 0 && retired >= nextEpoch {
			hybrid.AdvanceEpoch()
			nextEpoch += cfg.EpochInstructions
		}
		allDone := true
		for _, c := range cpus {
			if !c.Finished() {
				allDone = false
				break
			}
		}
		if allDone && !mem.drainInflight() {
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
				skip := wake - now - 1
				for _, c := range cpus {
					c.NoteSkipped(skip)
				}
				now = wake - 1
			}
		}
	}

	res, err = assembleMulti(cfg, mem, hybrid, cpus, perRetired, now, orig)
	if err != nil {
		return res, err
	}
	if auditor != nil {
		auditor.CheckNow(now)
		res.Audit = auditor.Report()
		if err := res.Audit.Err(); err != nil {
			return res, err
		}
	}
	cfg.Arena.releaseMulti(mem)
	cfg.Arena.putCPUs(cpus...)
	return res, nil
}

// assembleMulti builds the MultiResult both multi-core engines share: the
// shared-L2 aggregates, one CoreResult per core, hybrid/learned extras and
// the deferred source-error check. The caller layers on engine-specific
// pieces (the serial engine its audit report, the parallel engine its
// ParallelStats) and returns the memory system to the arena.
func assembleMulti(cfg Config, mem *multiMemSystem, hybrid core.Hybrid, cpus []*cpu.CPU, perRetired []uint64, now uint64, orig []trace.Source) (MultiResult, error) {
	res := MultiResult{
		Policy:   cfg.Policy.String(),
		Cycles:   now,
		L2:       mem.l2.Stats(),
		DRAM:     mem.dram.Stats(),
		CostHist: mem.costHist,
		Delta:    mem.delta,
	}
	res.CrossCoreMerges = mem.crossMerges
	for i, p := range mem.ports {
		cr := CoreResult{
			Instructions: perRetired[i],
			CPU:          cpus[i].Stats(),
			Bpred:        cpus[i].PredictorStats(),
			L1:           p.l1.Stats(),
			MSHR:         p.mshr.Stats(),
			Mem:          p.mstats,
			CostHist:     p.costHist,
			CostSum:      p.costSum,
		}
		if now > 0 {
			cr.IPC = float64(cr.Instructions) / float64(now)
		}
		res.Cores = append(res.Cores, cr)
		res.Mem.DemandMisses += p.mstats.DemandMisses
		res.Mem.MergedMisses += p.mstats.MergedMisses
		res.Mem.CompulsoryMisses += p.mstats.CompulsoryMisses
		res.Mem.L1WritebackDrops += p.mstats.L1WritebackDrops
		res.Mem.CostQSum += p.mstats.CostQSum
	}
	res.Mem.TrackedBlocks = uint64(mem.tracked.Len())
	if hybrid != nil {
		hs := statsOf(hybrid)
		res.Hybrid = &hs
		if mem.sbar != nil {
			for t := 0; t < mem.sbar.Threads(); t++ {
				res.PselValues = append(res.PselValues, mem.sbar.PselFor(t).Value())
			}
		}
	}
	res.Learn = learnStatsOf(mem.l2.Policy())
	for _, s := range orig {
		if es, ok := s.(interface{ Err() error }); ok {
			if err := es.Err(); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// buildMultiAuditor assembles the invariant checkers for an audited
// multi-core run: the shared L2's structural checks, every core's own
// L1 and MSHR checks, the MSHR↔fill-table bijection extended to sharer
// sets, and the hybrid engine's checks (with every per-thread selector
// bounded when the PSEL is partitioned).
func buildMultiAuditor(cfg Config, mem *multiMemSystem, hybrid core.Hybrid) *audit.Auditor {
	a := audit.New(cfg.AuditEvery,
		audit.RecencyPermutation("l2-recency", mem.l2),
		audit.CostQBound("l2-costq", mem.l2, 7),
		audit.Func("mshr-inflight", func(_ uint64, report func(string)) {
			// Every sharer of a pending fill must hold an MSHR entry for
			// the block, and each core's occupancy must equal its count
			// of in-flight sharer bits: per core, entries and fills are
			// created and retired together.
			perCore := make([]int, len(mem.ports))
			mem.inflight.Range(func(block uint64, f *multiFill) bool {
				for rest := f.sharers; rest != 0; rest &= rest - 1 {
					tid := trailingZeros(rest)
					perCore[tid]++
					if !mem.ports[tid].mshr.Pending(block) {
						report(fmt.Sprintf("core %d shares in-flight block %#x but has no MSHR entry", tid, block))
					}
				}
				return true
			})
			for i, p := range mem.ports {
				if got, want := p.mshr.Len(), perCore[i]; got != want {
					report(fmt.Sprintf("core %d MSHR holds %d entries but shares %d in-flight fills", i, got, want))
				}
			}
		}),
	)
	for i, p := range mem.ports {
		a.Register(
			audit.RecencyPermutation(fmt.Sprintf("l1-recency-core%d", i), p.l1),
			audit.Strings(fmt.Sprintf("mshr-core%d", i), p.mshr.AuditInvariants),
		)
	}
	switch h := hybrid.(type) {
	case *core.SBAR:
		a.Register(audit.Strings("sbar", h.AuditInvariants))
		for t := 0; t < h.Threads(); t++ {
			t := t
			a.Register(audit.PselBound(fmt.Sprintf("sbar-psel-t%d", t), func() (int, int) {
				p := h.PselFor(t)
				return p.Value(), p.Max()
			}))
		}
	case *core.CBS:
		a.Register(audit.Strings("cbs", h.AuditInvariants))
	}
	return a
}
