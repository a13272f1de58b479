// Package cpu models the out-of-order core of the baseline machine
// (Table 2): an eight-wide fetch/issue/retire engine with a 128-entry
// instruction window, oldest-ready scheduling, a store buffer that lets
// store misses retire without blocking the window, and a stall-on-
// mispredict front end with the paper's 15-cycle minimum penalty.
//
// The model is deliberately scoped to what MLP-aware replacement can
// observe: how many long-latency misses overlap inside the bounded
// window, and when the window stalls waiting for memory. Loads issue when
// their register dependence (a backward distance carried by the trace)
// resolves; dependent loads therefore serialize their misses (isolated
// misses) while independent loads overlap them (parallel misses).
package cpu

import (
	"math"
	"math/bits"

	"mlpcache/internal/bpred"
	"mlpcache/internal/simerr"
	"mlpcache/internal/trace"
)

// Config describes the core.
type Config struct {
	ROBEntries         int
	FetchWidth         int
	IssueWidth         int
	RetireWidth        int
	MemPorts           int // memory instructions issued per cycle
	StoreBufferEntries int
	MispredictPenalty  uint64
	IntLat             uint64
	MulLat             uint64
	FPLat              uint64
	DivLat             uint64
	// BranchPredictor, when set, replaces the trace's oracle
	// Mispredict flags with a live gshare/per-address hybrid operating
	// on the branches' static ids and actual outcomes.
	BranchPredictor *bpred.Config
}

// DefaultConfig returns the paper's baseline core.
func DefaultConfig() Config {
	return Config{
		ROBEntries:         128,
		FetchWidth:         8,
		IssueWidth:         8,
		RetireWidth:        8,
		MemPorts:           2,
		StoreBufferEntries: 128,
		MispredictPenalty:  15,
		IntLat:             1,
		MulLat:             8,
		FPLat:              4,
		DivLat:             16,
	}
}

// Validate checks the configuration, wrapping failures in
// simerr.ErrBadConfig.
func (c Config) Validate() error {
	if c.ROBEntries <= 0 || c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0 {
		return simerr.New(simerr.ErrBadConfig,
			"cpu: widths and window size must be positive (rob=%d fetch=%d issue=%d retire=%d)",
			c.ROBEntries, c.FetchWidth, c.IssueWidth, c.RetireWidth)
	}
	if c.ROBEntries > math.MaxInt32 {
		return simerr.New(simerr.ErrBadConfig, "cpu: ROBEntries %d exceeds %d", c.ROBEntries, math.MaxInt32)
	}
	if c.MemPorts <= 0 {
		return simerr.New(simerr.ErrBadConfig, "cpu: MemPorts must be positive, got %d", c.MemPorts)
	}
	if c.StoreBufferEntries < 1 {
		// A zero-entry buffer refuses every store forever while counting
		// each refusal as work: the core would livelock.
		return simerr.New(simerr.ErrBadConfig, "cpu: StoreBufferEntries must be at least 1, got %d", c.StoreBufferEntries)
	}
	if c.BranchPredictor != nil {
		if err := c.BranchPredictor.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MemSystem is the data-memory interface the core issues to.
type MemSystem interface {
	// Access starts a load (write=false) or store (write=true) at cycle
	// now. It returns the access's completion cycle. accepted=false
	// signals a structural hazard (MSHR full); the core retries the
	// instruction on a later cycle.
	Access(addr uint64, write bool, now uint64) (done uint64, accepted bool)
}

// Stats aggregates the core's counters.
type Stats struct {
	Retired     uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	Mispredicts uint64
	// MemStallCycles counts cycles in which nothing retired because the
	// window head was an incomplete memory instruction.
	MemStallCycles uint64
	// MemStallEpisodes counts maximal runs of such cycles — the paper's
	// "long-latency stalls" when the run is caused by an L2 miss.
	MemStallEpisodes uint64
	// FullWindowCycles counts cycles fetch was blocked by a full window.
	FullWindowCycles uint64
	// FetchMispredictCycles counts cycles fetch was blocked waiting for
	// a mispredicted branch to resolve (plus the redirect penalty).
	FetchMispredictCycles uint64
	// StoreBufferFullEvents counts issue attempts rejected by a full
	// store buffer; MSHRRejects counts memory accesses the hierarchy
	// refused (MSHR full).
	StoreBufferFullEvents uint64
	MSHRRejects           uint64
}

// notIssued is the doneAt of an entry that has not issued yet: no cycle
// reaches it, so "doneAt <= now" alone means "issued and complete".
const notIssued = ^uint64(0)

// noSlot ends a consumer list.
const noSlot = -1

type robEntry struct {
	// in is the fetched instruction. For a branch, in.Mispredict holds
	// its fate as decided at fetch (oracle flag or live predictor), for
	// retirement statistics.
	in     trace.Instr
	doneAt uint64
	// firstCons heads the list of in-window entries that consume this
	// entry's result; nextCons links this entry into its own producer's
	// list. Both hold ROB slots (noSlot ends a list), so the lists live
	// in the ring and need no allocation.
	firstCons, nextCons int32
}

const noBranch = ^uint64(0)

// CPU is the core model. Drive it by calling Cycle with a monotonically
// increasing cycle number until Finished reports true or an instruction
// budget is met.
//
// Scheduling is wakeup-driven. Fetch resolves each entry's producer: an
// entry whose operand is already available is marked ready at once, the
// rest join their producer's consumer list. A completion wakes that list
// into the ready bitset when its cycle arrives, and issue walks only the
// ready bits, oldest first — the oldest-ready order of a full window
// scan at O(ready) cost.
type CPU struct {
	cfg Config
	mem MemSystem
	src trace.Source

	rob []robEntry
	// ready holds one bit per ROB slot, set while the slot holds an
	// unissued entry whose operand is available. A load or store the
	// memory side refuses keeps its bit and retries next cycle.
	ready    []uint64
	head     int
	count    int
	headG    uint64 // global index of rob[head]
	nextG    uint64 // global index of the next fetched instruction
	srcDone  bool
	blockedG uint64 // global index of the unresolved mispredicted branch
	resumeAt uint64 // cycle fetch may resume after redirect; 0 = unresolved

	storeDone []uint64 // completion cycles of in-flight stores

	predictor *bpred.Predictor

	// events is a min-heap of pending completions. It wakes consumers
	// when a completion's cycle arrives and lets the run loop skip stall
	// cycles in which nothing can change.
	events  eventHeap
	didWork bool

	inMemStall bool
	stats      Stats
}

// event is one pending completion: the cycle it lands and the ROB slot
// of the completing entry.
type event struct {
	at   uint64
	slot int32
}

// eventHeap is a plain binary min-heap of events ordered by cycle
// (inlined rather than container/heap to keep the hot path
// allocation-free).
type eventHeap []event

func (h *eventHeap) push(v event) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].at <= (*h)[i].at {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *eventHeap) pop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old[l].at < old[small].at {
			small = l
		}
		if r < n && old[r].at < old[small].at {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
}

// New builds a core that executes src against mem.
func New(cfg Config, mem MemSystem, src trace.Source) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if mem == nil || src == nil {
		panic(simerr.New(simerr.ErrBadConfig, "cpu: need a memory system and a source"))
	}
	c := &CPU{
		cfg:      cfg,
		mem:      mem,
		src:      src,
		rob:      make([]robEntry, cfg.ROBEntries),
		ready:    make([]uint64, readyWords(cfg.ROBEntries)),
		blockedG: noBranch,
	}
	if cfg.BranchPredictor != nil {
		c.predictor = bpred.New(*cfg.BranchPredictor)
	}
	return c
}

// readyWords is the length of the ready bitset for an n-entry window.
func readyWords(n int) int { return (n + 63) / 64 }

// Reset returns the core to just-built state executing src against mem,
// recycling the ROB ring, ready bitset, store buffer and event-heap
// backings — the arena's reuse contract. Stale ROB entries, consumer
// links included, are safe to keep: fetch fully overwrites a slot before
// any stage reads it, and a new entry only links to entries fetched
// after it. The ready bits are cleared. A configured branch predictor
// is rebuilt fresh (its tables are run state).
func (c *CPU) Reset(cfg Config, mem MemSystem, src trace.Source) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if mem == nil || src == nil {
		panic(simerr.New(simerr.ErrBadConfig, "cpu: need a memory system and a source"))
	}
	rob, ready := c.rob, c.ready
	if len(rob) != cfg.ROBEntries {
		rob = make([]robEntry, cfg.ROBEntries)
		ready = make([]uint64, readyWords(cfg.ROBEntries))
	} else {
		clear(ready)
	}
	var pred *bpred.Predictor
	if cfg.BranchPredictor != nil {
		pred = bpred.New(*cfg.BranchPredictor)
	}
	*c = CPU{
		cfg:       cfg,
		mem:       mem,
		src:       src,
		rob:       rob,
		ready:     ready,
		blockedG:  noBranch,
		storeDone: c.storeDone[:0],
		events:    c.events[:0],
		predictor: pred,
	}
}

// PredictorStats returns the live predictor's counters (zero value when
// running in oracle mode).
func (c *CPU) PredictorStats() bpred.Stats {
	if c.predictor == nil {
		return bpred.Stats{}
	}
	return c.predictor.Stats()
}

// Stats returns the core's counters.
func (c *CPU) Stats() Stats { return c.stats }

// Finished reports whether the source is drained and the window empty.
func (c *CPU) Finished() bool { return c.srcDone && c.count == 0 }

// slot maps a global instruction index in the window to its ROB slot.
// g is within the window, so the offset is below len(rob) and a single
// conditional wrap replaces the (much slower) modulo.
func (c *CPU) slot(g uint64) int {
	s := c.head + int(g-c.headG)
	if s >= len(c.rob) {
		s -= len(c.rob)
	}
	return s
}

func (c *CPU) setReady(s int) { c.ready[s>>6] |= 1 << (s & 63) }

// wake marks every consumer of p ready and empties p's list.
func (c *CPU) wake(p *robEntry) {
	for s := p.firstCons; s != noSlot; s = c.rob[s].nextCons {
		c.setReady(int(s))
	}
	p.firstCons = noSlot
}

// wakeDue pops every completion landed by cycle now and wakes its
// consumers. The completing entry is still in the window: it retires no
// earlier than the cycle its completion lands, and every cycle wakes
// before it retires or fetches into a freed slot.
func (c *CPU) wakeDue(now uint64) {
	for len(c.events) > 0 && c.events[0].at <= now {
		s := c.events[0].slot
		c.events.pop()
		c.wake(&c.rob[s])
	}
}

// Cycle advances the core by one cycle: wake the consumers of landed
// completions, retire, drain the store buffer, issue, fetch. It returns
// the number of instructions retired this cycle.
func (c *CPU) Cycle(now uint64) int {
	c.didWork = false
	c.wakeDue(now)
	retired := c.retire(now)
	if retired > 0 {
		c.didWork = true
	}
	c.drainStores(now)
	c.issue(now)
	c.fetch(now)
	return retired
}

// NoteSkipped attributes n cycles the run loop skipped (because DidWork
// was false) to the stall statistics the skipped cycles would have
// accrued one by one.
func (c *CPU) NoteSkipped(n uint64) {
	if c.inMemStall {
		c.stats.MemStallCycles += n
	}
	// Attribution order mirrors fetch exactly (blocked front end before
	// full window), so a skipped stall cycle accrues the same counter a
	// burned one would.
	if c.blockedG != noBranch {
		c.stats.FetchMispredictCycles += n
	} else if c.count == len(c.rob) {
		c.stats.FullWindowCycles += n
	}
}

// DidWork reports whether the last Cycle retired, issued or fetched
// anything. When it returns false, no core state can change before
// NextEvent, so the run loop may skip ahead.
func (c *CPU) DidWork() bool { return c.didWork }

// NextEvent returns the earliest future cycle (strictly after now) at
// which core-visible state can change: a pending completion, a store
// buffer drain, or a fetch redirect. It returns ^uint64(0) if no such
// event is scheduled.
func (c *CPU) NextEvent(now uint64) uint64 {
	next := ^uint64(0)
	c.wakeDue(now) // completions already due leave the heap, as in Cycle
	if len(c.events) > 0 {
		next = c.events[0].at
	}
	if c.blockedG != noBranch && c.resumeAt > now && c.resumeAt < next {
		next = c.resumeAt
	}
	for _, d := range c.storeDone {
		if d > now && d < next {
			next = d
		}
	}
	return next
}

func (c *CPU) retire(now uint64) int {
	retired := 0
	for retired < c.cfg.RetireWidth && c.count > 0 {
		e := &c.rob[c.head]
		if e.doneAt > now {
			break
		}
		switch e.in.Kind {
		case trace.Load:
			c.stats.Loads++
		case trace.Store:
			c.stats.Stores++
		case trace.Branch:
			c.stats.Branches++
			if e.in.Mispredict {
				c.stats.Mispredicts++
			}
		}
		c.head++
		if c.head == len(c.rob) {
			c.head = 0
		}
		c.headG++
		c.count--
		c.stats.Retired++
		retired++
	}
	if retired == 0 && c.count > 0 {
		e := &c.rob[c.head]
		if e.in.Kind.IsMem() && e.doneAt > now {
			c.stats.MemStallCycles++
			if !c.inMemStall {
				c.inMemStall = true
				c.stats.MemStallEpisodes++
			}
		} else {
			c.inMemStall = false
		}
	} else {
		c.inMemStall = false
	}
	return retired
}

func (c *CPU) drainStores(now uint64) {
	out := c.storeDone[:0]
	for _, d := range c.storeDone {
		if d > now {
			out = append(out, d)
		}
	}
	c.storeDone = out
}

// issue walks the ready bits in age order — slots [head, len) and then
// the wrapped [0, head) — and stops after IssueWidth issues. Each step
// re-reads the bitset word, so an entry woken by a zero-latency
// completion earlier in the walk issues in the same cycle.
func (c *CPU) issue(now uint64) {
	issued, memIssued := 0, 0
	lo, hi := c.head, len(c.rob)
	for pass := 0; pass < 2; pass++ {
		for s := lo; s < hi; {
			w := c.ready[s>>6] >> (s & 63)
			if w == 0 {
				s = (s | 63) + 1
				continue
			}
			s += bits.TrailingZeros64(w)
			if s >= hi {
				break
			}
			if c.issueOne(s, now, &memIssued) {
				issued++
				if issued >= c.cfg.IssueWidth {
					return
				}
			}
			s++
		}
		lo, hi = 0, c.head
	}
}

// issueOne tries to issue the ready entry in slot s and reports whether
// it did. A load or store refused for a port, the store buffer or the
// MSHRs stays ready and retries on a later cycle.
func (c *CPU) issueOne(s int, now uint64, memIssued *int) bool {
	e := &c.rob[s]
	switch e.in.Kind {
	case trace.Int:
		c.complete(s, now, now+c.cfg.IntLat)
	case trace.Mul:
		c.complete(s, now, now+c.cfg.MulLat)
	case trace.FP:
		c.complete(s, now, now+c.cfg.FPLat)
	case trace.Div:
		c.complete(s, now, now+c.cfg.DivLat)
	case trace.Branch:
		c.complete(s, now, now+1)
		if c.blockedG != noBranch && c.slot(c.blockedG) == s {
			// Branch resolved: fetch redirects after the minimum
			// misprediction penalty.
			c.resumeAt = e.doneAt + c.cfg.MispredictPenalty
		}
	case trace.Load:
		if *memIssued >= c.cfg.MemPorts {
			return false
		}
		*memIssued++
		done, ok := c.mem.Access(e.in.Addr, false, now)
		if !ok {
			// A rejected access still mutates state (reject counters,
			// L2 probe stats), so the cycle counts as work: fast-forward
			// must not skip retry cycles a burned loop would execute.
			c.stats.MSHRRejects++
			c.didWork = true
			return false
		}
		c.complete(s, now, done)
	case trace.Store:
		if *memIssued >= c.cfg.MemPorts {
			return false
		}
		if len(c.storeDone) >= c.cfg.StoreBufferEntries {
			// The full-buffer event accrues per executed cycle, so the
			// cycle counts as work for the same reason a reject does.
			c.stats.StoreBufferFullEvents++
			c.didWork = true
			return false // window blocks only when the buffer is full
		}
		*memIssued++
		done, ok := c.mem.Access(e.in.Addr, true, now)
		if !ok {
			c.stats.MSHRRejects++
			c.didWork = true
			return false
		}
		// The store retires from the window immediately; the store
		// buffer tracks the in-flight write.
		c.storeDone = append(c.storeDone, done)
		c.complete(s, now, now+1)
	default:
		return false // not an instruction class: never issues
	}
	return true
}

// complete issues the entry in slot s, landing at doneAt. A completion
// due by now (a zero-latency unit) wakes its consumers at once, so they
// issue later in this cycle's walk; any other joins the event heap.
func (c *CPU) complete(s int, now, doneAt uint64) {
	e := &c.rob[s]
	e.doneAt = doneAt
	c.ready[s>>6] &^= 1 << (s & 63)
	c.didWork = true
	if doneAt <= now {
		c.wake(e)
		return
	}
	c.events.push(event{at: doneAt, slot: int32(s)})
}

// branchMispredicted decides a fetched branch's fate: a live predictor
// consults and trains on the branch's id and outcome; oracle mode obeys
// the trace's flag.
func (c *CPU) branchMispredicted(in trace.Instr) bool {
	if c.predictor != nil {
		return !c.predictor.PredictAndUpdate(in.Addr, in.Taken)
	}
	return in.Mispredict
}

func (c *CPU) fetch(now uint64) {
	if c.blockedG != noBranch {
		if c.resumeAt == 0 || now < c.resumeAt {
			c.stats.FetchMispredictCycles++
			return
		}
		c.blockedG = noBranch
		c.resumeAt = 0
	}
	if c.count == len(c.rob) {
		c.stats.FullWindowCycles++
		return
	}
	slot := c.head + c.count
	if slot >= len(c.rob) {
		slot -= len(c.rob)
	}
	for f := 0; f < c.cfg.FetchWidth && c.count < len(c.rob) && !c.srcDone; f++ {
		in, ok := c.src.Next()
		if !ok {
			c.srcDone = true
			return
		}
		g := c.nextG
		e := &c.rob[slot]
		e.in = in
		e.in.Mispredict = in.Kind == trace.Branch && c.branchMispredicted(in)
		e.doneAt = notIssued
		e.firstCons, e.nextCons = noSlot, noSlot
		c.dispatch(slot, g, now)
		slot++
		if slot == len(c.rob) {
			slot = 0
		}
		c.nextG++
		c.count++
		c.didWork = true
		if e.in.Mispredict {
			// Stall-on-mispredict front end: no wrong path is
			// fetched; fetch waits for the branch to resolve.
			c.blockedG = g
			return
		}
	}
}

// dispatch resolves the register dependence of the entry just fetched
// into slot s (global index g). With no producer in the window — none at
// all, one before the first instruction, or one already retired — or a
// producer complete by now, the entry is ready at once. Otherwise it
// joins the producer's consumer list and the producer's completion
// wakes it.
func (c *CPU) dispatch(s int, g, now uint64) {
	e := &c.rob[s]
	if d := uint64(e.in.Dep); e.in.Dep > 0 && d <= g && g-d >= c.headG {
		p := &c.rob[c.slot(g-d)]
		if p.doneAt > now {
			e.nextCons = p.firstCons
			p.firstCons = int32(s)
			return
		}
	}
	c.setReady(s)
}
