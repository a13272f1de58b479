package trace

import "mlpcache/internal/simerr"

// This file implements the workload generator combinators. Each generator
// produces an unbounded instruction stream; internal/workload composes them
// into models of the paper's SPEC CPU2000 benchmarks.
//
// Dependence semantics: a generator emits Dep distances relative to its own
// output stream. The interleaving combinators (Mix, Phases) rewrite those
// distances so they remain correct in the merged stream; see interleaver.

// queued is a helper base for generators that naturally produce
// instructions in batches. refill must append at least one instruction.
// Its refill buffer doubles as the lookahead that Next drains.
type queued struct {
	buf    []Instr
	pos    int
	refill func(buf []Instr) []Instr
}

func (q *queued) Next() (Instr, bool) {
	if q.pos == len(q.buf) && !q.more() {
		return Instr{}, false
	}
	in := q.buf[q.pos]
	q.pos++
	return in, true
}

func (q *queued) read(dst []Instr) int {
	n := 0
	for n < len(dst) {
		if q.pos == len(q.buf) && !q.more() {
			break
		}
		k := copy(dst[n:], q.buf[q.pos:])
		q.pos += k
		n += k
	}
	return n
}

// more refills the drained buffer and reports whether the stream goes on.
func (q *queued) more() bool {
	q.buf = q.refill(q.buf[:0])
	q.pos = 0
	return len(q.buf) > 0
}

// sameBlockTouches appends n loads to further words of the just-accessed
// block, each depending on the previous access. Real programs touch a
// fetched block several times (spatial locality); these extra loads hit
// the L1 and give the models realistic L1 hit rates and compute density
// without changing L2 behaviour.
func sameBlockTouches(buf []Instr, addr uint64, n int) []Instr {
	for i := 0; i < n; i++ {
		buf = append(buf, Instr{Kind: Load, Addr: addr + uint64(8*(i+1)), Dep: 1})
	}
	return buf
}

// fillerRun appends gap filler instructions using rng: mostly single-cycle
// integer ops with an occasional branch so the stream exercises the front
// end. mispredict gives the per-branch misprediction probability used in
// oracle mode; for predictor mode every branch also carries a static id
// (in Addr) and an actual outcome (Taken): most dynamic branches come
// from well-behaved "loop" branches that are almost always taken, the
// rest from noisier data-dependent ones.
func fillerRun(buf []Instr, gap int, rng *RNG, fpFrac, mispredict float64) []Instr {
	for i := 0; i < gap; i++ {
		switch {
		case rng.Bool(1.0/16) && gap > 1:
			id := uint64(rng.Intn(16))
			taken := rng.Bool(0.98)
			if id >= 14 { // data-dependent branches
				taken = rng.Bool(0.65)
			}
			buf = append(buf, Instr{
				Kind:       Branch,
				Addr:       id,
				Taken:      taken,
				Mispredict: rng.Bool(mispredict),
			})
		case rng.Bool(fpFrac):
			buf = append(buf, Instr{Kind: FP})
		default:
			buf = append(buf, Instr{Kind: Int})
		}
	}
	return buf
}

// ChaseConfig parameterizes a pointer-chasing load stream: every load
// depends on the value returned by the previous load, so misses to
// uncached blocks serialize and surface as the paper's "isolated misses".
type ChaseConfig struct {
	Base       uint64  // first byte of the region
	Blocks     int     // number of distinct blocks in the chase ring
	BlockBytes uint64  // cache block size (64 in the baseline)
	Gap        int     // filler instructions between consecutive loads
	Touches    int     // extra dependent same-block loads per visit (L1 hits)
	Stores     float64 // probability a visit also writes the block
	FPFrac     float64 // fraction of filler that is FP
	Mispredict float64 // branch misprediction probability in filler
	Reshuffle  bool    // re-randomize visit order every lap
	// Cold makes the chase walk ever-fresh blocks instead of a ring:
	// every miss is isolated AND compulsory, and the block is never
	// touched again. Under MLP-aware replacement such blocks become
	// dead high-cost residue — the pollution that makes LIN lose on
	// the paper's high-delta benchmarks.
	Cold bool
	// RunLen/SkipLen shape a cold walk's footprint: RunLen consecutive
	// blocks are visited, then SkipLen are skipped. Because a cache set
	// is selected by block number modulo the set count, a run/skip
	// pattern confines the pollution to a fraction of the sets, which
	// tunes how much of a co-resident working set the dead residue
	// starves. Zero values mean a plain sequential walk.
	RunLen  int
	SkipLen int
	Seed    uint64
}

// Validate checks the parameters, wrapping failures in
// simerr.ErrBadConfig.
func (c ChaseConfig) Validate() error {
	if c.Blocks <= 0 && !c.Cold {
		return simerr.New(simerr.ErrBadConfig, "trace: PointerChase needs at least one block, got %d", c.Blocks)
	}
	if c.Gap < 0 || c.Touches < 0 || c.RunLen < 0 || c.SkipLen < 0 {
		return simerr.New(simerr.ErrBadConfig, "trace: PointerChase counts must be non-negative")
	}
	if c.Stores < 0 || c.Stores > 1 || c.FPFrac < 0 || c.FPFrac > 1 || c.Mispredict < 0 || c.Mispredict > 1 {
		return simerr.New(simerr.ErrBadConfig, "trace: PointerChase probabilities must be in [0,1]")
	}
	return nil
}

type chase struct {
	queued
	cfg   ChaseConfig
	rng   *RNG
	order []int
	pos   int
}

// NewPointerChase returns a generator that walks a randomized ring of
// cfg.Blocks blocks. Each load's Dep points at the previous load in the
// chain (distance Gap+1), modelling a linked-list traversal.
// It panics (with a typed simerr.ErrBadConfig error) on invalid
// parameters; validate externally-sourced configs with Validate first.
func NewPointerChase(cfg ChaseConfig) Source {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 1 // Cold walks ignore the ring size
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 64
	}
	c := &chase{cfg: cfg, rng: NewRNG(cfg.Seed)}
	c.order = c.rng.Perm(cfg.Blocks)
	c.refill = c.fill
	return c
}

func (c *chase) fill(buf []Instr) []Instr {
	var blk int
	if c.cfg.Cold {
		blk = c.pos
		if c.cfg.RunLen > 0 {
			blk = (c.pos/c.cfg.RunLen)*(c.cfg.RunLen+c.cfg.SkipLen) + c.pos%c.cfg.RunLen
		}
		c.pos++
	} else {
		if c.pos >= len(c.order) {
			c.pos = 0
			if c.cfg.Reshuffle {
				c.order = c.rng.Perm(c.cfg.Blocks)
			}
		}
		blk = c.order[c.pos]
		c.pos++
	}
	addr := c.cfg.Base + uint64(blk)*c.cfg.BlockBytes
	// The load depends on the previous load, which sits Gap+1
	// instructions back once the filler is emitted after it.
	buf = append(buf, Instr{Kind: Load, Addr: addr, Dep: int32(c.cfg.Gap+c.cfg.Touches) + 1})
	buf = sameBlockTouches(buf, addr, c.cfg.Touches)
	if c.rng.Bool(c.cfg.Stores) {
		buf = append(buf, Instr{Kind: Store, Addr: addr, Dep: 1})
	}
	return fillerRun(buf, c.cfg.Gap, c.rng, c.cfg.FPFrac, c.cfg.Mispredict)
}

// StreamConfig parameterizes an independent strided load stream: loads
// carry no dependences, so misses overlap inside the instruction window
// and surface as the paper's "parallel misses".
type StreamConfig struct {
	Base        uint64
	Blocks      int // working-set size in blocks; the sweep wraps
	StrideBlks  int // stride between consecutive accesses, in blocks
	BlockBytes  uint64
	Gap         int     // filler instructions between loads
	Touches     int     // extra dependent same-block loads per access (L1 hits)
	Stores      float64 // probability an access is a store instead of a load
	FPFrac      float64
	Mispredict  float64
	RandomOrder bool // visit blocks in a per-lap random order instead of strided
	// Cold makes the sweep monotonic instead of wrapping: every access
	// touches a never-seen block, so every miss is compulsory. Used to
	// model benchmarks with large compulsory fractions (Table 3).
	Cold bool
	Seed uint64
}

// Validate checks the parameters, wrapping failures in
// simerr.ErrBadConfig.
func (c StreamConfig) Validate() error {
	if c.Blocks <= 0 && !c.Cold {
		return simerr.New(simerr.ErrBadConfig, "trace: Stream needs at least one block, got %d", c.Blocks)
	}
	if c.Gap < 0 || c.Touches < 0 {
		return simerr.New(simerr.ErrBadConfig, "trace: Stream counts must be non-negative")
	}
	if c.Stores < 0 || c.Stores > 1 || c.FPFrac < 0 || c.FPFrac > 1 || c.Mispredict < 0 || c.Mispredict > 1 {
		return simerr.New(simerr.ErrBadConfig, "trace: Stream probabilities must be in [0,1]")
	}
	return nil
}

type stream struct {
	queued
	cfg   StreamConfig
	rng   *RNG
	next  int
	order []int
	pos   int
}

// NewStream returns a generator that sweeps a region of cfg.Blocks blocks
// with independent loads, wrapping around for ever. With RandomOrder the
// sweep order is re-randomized each lap.
// It panics (with a typed simerr.ErrBadConfig error) on invalid
// parameters; validate externally-sourced configs with Validate first.
func NewStream(cfg StreamConfig) Source {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 1 // Cold sweeps ignore the wrap size
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 64
	}
	if cfg.StrideBlks == 0 {
		cfg.StrideBlks = 1
	}
	s := &stream{cfg: cfg, rng: NewRNG(cfg.Seed)}
	s.refill = s.fill
	return s
}

func (s *stream) fill(buf []Instr) []Instr {
	var blk int
	switch {
	case s.cfg.Cold:
		blk = s.next
		s.next += s.cfg.StrideBlks
	case s.cfg.RandomOrder:
		if s.pos >= len(s.order) {
			s.order = s.rng.Perm(s.cfg.Blocks)
			s.pos = 0
		}
		blk = s.order[s.pos]
		s.pos++
	default:
		blk = s.next
		s.next = (s.next + s.cfg.StrideBlks) % s.cfg.Blocks
	}
	addr := s.cfg.Base + uint64(blk)*s.cfg.BlockBytes
	kind := Load
	if s.rng.Bool(s.cfg.Stores) {
		kind = Store
	}
	buf = append(buf, Instr{Kind: kind, Addr: addr})
	buf = sameBlockTouches(buf, addr, s.cfg.Touches)
	return fillerRun(buf, s.cfg.Gap, s.rng, s.cfg.FPFrac, s.cfg.Mispredict)
}

// AlternatingConfig parameterizes a stream whose blocks flip between
// pointer-chase laps (isolated misses, mlp-cost near the full memory
// latency) and burst laps (parallel misses, low mlp-cost). Successive
// misses to the same block therefore see wildly different mlp-cost — the
// high-delta behaviour of bzip2, parser and mgrid in Table 1 that defeats
// last-cost prediction.
type AlternatingConfig struct {
	Base       uint64
	Blocks     int
	BlockBytes uint64
	ChaseGap   int // filler between loads on chase laps
	BurstGap   int // filler between loads on burst laps
	Touches    int // extra dependent same-block loads per visit (L1 hits)
	FPFrac     float64
	Mispredict float64
	// RunLen/SkipLen lay the region out in runs of consecutive blocks
	// separated by gaps, confining it to a fraction of the cache sets
	// (see ChaseConfig).
	RunLen  int
	SkipLen int
	Seed    uint64
}

// Validate checks the parameters, wrapping failures in
// simerr.ErrBadConfig.
func (c AlternatingConfig) Validate() error {
	if c.Blocks <= 0 {
		return simerr.New(simerr.ErrBadConfig, "trace: Alternating needs at least one block, got %d", c.Blocks)
	}
	if c.ChaseGap < 0 || c.BurstGap < 0 || c.Touches < 0 || c.RunLen < 0 || c.SkipLen < 0 {
		return simerr.New(simerr.ErrBadConfig, "trace: Alternating counts must be non-negative")
	}
	if c.FPFrac < 0 || c.FPFrac > 1 || c.Mispredict < 0 || c.Mispredict > 1 {
		return simerr.New(simerr.ErrBadConfig, "trace: Alternating probabilities must be in [0,1]")
	}
	return nil
}

type alternating struct {
	queued
	cfg   AlternatingConfig
	rng   *RNG
	order []int
	pos   int
	burst bool
}

// NewAlternating returns the high-delta generator described above.
// It panics (with a typed simerr.ErrBadConfig error) on invalid
// parameters; validate externally-sourced configs with Validate first.
func NewAlternating(cfg AlternatingConfig) Source {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 64
	}
	a := &alternating{cfg: cfg, rng: NewRNG(cfg.Seed)}
	a.order = a.rng.Perm(cfg.Blocks)
	a.refill = a.fill
	return a
}

func (a *alternating) fill(buf []Instr) []Instr {
	if a.pos >= len(a.order) {
		a.pos = 0
		a.burst = !a.burst
	}
	blk := a.order[a.pos]
	a.pos++
	if a.cfg.RunLen > 0 {
		blk = (blk/a.cfg.RunLen)*(a.cfg.RunLen+a.cfg.SkipLen) + blk%a.cfg.RunLen
	}
	addr := a.cfg.Base + uint64(blk)*a.cfg.BlockBytes
	if a.burst {
		buf = append(buf, Instr{Kind: Load, Addr: addr})
		buf = sameBlockTouches(buf, addr, a.cfg.Touches)
		return fillerRun(buf, a.cfg.BurstGap, a.rng, a.cfg.FPFrac, a.cfg.Mispredict)
	}
	buf = append(buf, Instr{Kind: Load, Addr: addr, Dep: int32(a.cfg.ChaseGap+a.cfg.Touches) + 1})
	buf = sameBlockTouches(buf, addr, a.cfg.Touches)
	return fillerRun(buf, a.cfg.ChaseGap, a.rng, a.cfg.FPFrac, a.cfg.Mispredict)
}

// lookaheadLen is the batch an interleaver reads ahead of its callers'
// Next calls.
const lookaheadLen = 256

// lookahead adapts a batch reader to Next: it holds instructions read
// ahead of the caller, and the source's read drains it first so that
// Next and read calls see one stream.
type lookahead struct {
	buf []Instr
	pos int
}

// next serves one held instruction; it reports false when the buffer
// is drained.
func (l *lookahead) next() (Instr, bool) {
	if l.pos == len(l.buf) {
		return Instr{}, false
	}
	in := l.buf[l.pos]
	l.pos++
	return in, true
}

// refill reads the next batch through fill and serves its first
// instruction. The buffer is allocated on first use, so a source that
// is only ever read in batches never pays for it.
func (l *lookahead) refill(fill func([]Instr) int) (Instr, bool) {
	if l.buf == nil {
		l.buf = make([]Instr, lookaheadLen)
	}
	l.buf = l.buf[:fill(l.buf[:cap(l.buf)])]
	l.pos = 0
	return l.next()
}

// drain copies held instructions into dst and returns how many.
func (l *lookahead) drain(dst []Instr) int {
	n := copy(dst, l.buf[l.pos:])
	l.pos += n
	return n
}

// depWindow is how many of a part's recent instructions an interleaver
// remembers for dependence rewriting. Dependences reaching further back
// are clamped to the oldest remembered instruction, which by then has
// almost certainly retired anyway.
const depWindow = 256

// part tracks one sub-stream inside an interleaver.
type part struct {
	src Source
	// ring[i%depWindow] is the absolute output index of this part's
	// i-th emitted instruction.
	ring  [depWindow]uint64
	count uint64
	done  bool
}

// read fills dst with the part's next instructions, which land at
// absolute output indices abs, abs+1, ... in the merged stream. It
// rewrites each dependence distance into the merged stream's
// coordinates and records the positions. A result short of len(dst)
// marks the part done.
func (p *part) read(dst []Instr, abs uint64) int {
	n := Read(p.src, dst)
	if n < len(dst) {
		p.done = true
	}
	for k := range dst[:n] {
		in := &dst[k]
		// A producer inside this batch sits as far back in the merged
		// stream as in the part, so only older ones need the ring.
		if d := uint64(in.Dep); in.Dep > 0 && (d > uint64(k) || d > depWindow) {
			switch {
			case p.count == 0:
				in.Dep = 0 // no producer exists yet
			case d > p.count:
				d = p.count
				fallthrough
			default:
				if d > depWindow {
					d = depWindow
				}
				producer := p.ring[(p.count-d)%depWindow]
				in.Dep = int32(abs + uint64(k) - producer)
			}
		}
		p.ring[p.count%depWindow] = abs + uint64(k)
		p.count++
	}
	return n
}

// MixPart is one weighted component of a Mix.
type MixPart struct {
	Src Source
	// Weight is the relative probability of selecting this part for the
	// next chunk.
	Weight float64
	// Chunk is how many instructions to draw per selection (default 1).
	// Larger chunks keep a part's misses adjacent, preserving their
	// intra-part memory-level parallelism.
	Chunk int
}

type mix struct {
	parts []part
	meta  []MixPart
	rng   *RNG
	// live is the summed weight of the parts not yet done, re-summed in
	// part order whenever one ends.
	live   float64
	abs    uint64
	cur    int
	remain int
	la     lookahead
}

// NewMix interleaves the parts, selecting a part for each chunk with
// probability proportional to its weight. Dependences inside each part are
// preserved across the interleave.
func NewMix(seed uint64, parts ...MixPart) Source {
	if len(parts) == 0 {
		panic(simerr.New(simerr.ErrBadConfig, "trace: Mix needs at least one part"))
	}
	m := &mix{rng: NewRNG(seed), meta: parts}
	m.parts = make([]part, len(parts))
	for i := range parts {
		if parts[i].Chunk <= 0 {
			parts[i].Chunk = 1
		}
		if parts[i].Weight <= 0 {
			parts[i].Weight = 1
		}
		m.meta[i] = parts[i]
		m.parts[i] = part{src: parts[i].Src}
		m.live += parts[i].Weight
	}
	return m
}

func (m *mix) Next() (Instr, bool) {
	if in, ok := m.la.next(); ok {
		return in, true
	}
	return m.la.refill(m.fill)
}

func (m *mix) read(dst []Instr) int {
	n := m.la.drain(dst)
	return n + m.fill(dst[n:])
}

// fill copies one whole chunk per pick, or as much of it as dst holds.
func (m *mix) fill(dst []Instr) int {
	n := 0
	for n < len(dst) {
		if m.remain == 0 {
			m.pick()
			if m.remain == 0 {
				break // all parts exhausted
			}
		}
		p := &m.parts[m.cur]
		want := min(m.remain, len(dst)-n)
		got := p.read(dst[n:n+want], m.abs)
		n += got
		m.abs += uint64(got)
		m.remain -= got
		if p.done {
			m.remain = 0
			m.live = 0
			for i := range m.parts {
				if !m.parts[i].done {
					m.live += m.meta[i].Weight
				}
			}
		}
	}
	return n
}

func (m *mix) pick() {
	if m.live == 0 {
		return
	}
	x := m.rng.Float64() * m.live
	for i := range m.parts {
		if m.parts[i].done {
			continue
		}
		x -= m.meta[i].Weight
		if x < 0 {
			m.cur = i
			m.remain = m.meta[i].Chunk
			return
		}
	}
	// Floating-point slack: take the last live part.
	for i := len(m.parts) - 1; i >= 0; i-- {
		if !m.parts[i].done {
			m.cur = i
			m.remain = m.meta[i].Chunk
			return
		}
	}
}

// Phase is one leg of a Phases schedule.
type Phase struct {
	Src Source
	// Len is how many instructions this phase contributes before the
	// schedule advances.
	Len int
}

type phases struct {
	parts  []part
	lens   []int
	live   int // parts not yet done
	cur    int
	remain int
	abs    uint64
	la     lookahead
}

// NewPhases cycles through the given phases for ever: Len instructions
// from phase 0, then Len from phase 1, and so on, wrapping around. It is
// how the ammp model expresses its alternating LIN-friendly and
// LRU-friendly program phases. A phase whose source ends is skipped
// from then on.
func NewPhases(ps ...Phase) Source {
	if len(ps) == 0 {
		panic(simerr.New(simerr.ErrBadConfig, "trace: Phases needs at least one phase"))
	}
	g := &phases{live: len(ps)}
	for _, p := range ps {
		if p.Len <= 0 {
			panic(simerr.New(simerr.ErrBadConfig, "trace: Phase.Len must be positive, got %d", p.Len))
		}
		g.parts = append(g.parts, part{src: p.Src})
		g.lens = append(g.lens, p.Len)
	}
	g.remain = g.lens[0]
	return g
}

func (g *phases) Next() (Instr, bool) {
	if in, ok := g.la.next(); ok {
		return in, true
	}
	return g.la.refill(g.fill)
}

func (g *phases) read(dst []Instr) int {
	n := g.la.drain(dst)
	return n + g.fill(dst[n:])
}

func (g *phases) fill(dst []Instr) int {
	n := 0
	for n < len(dst) && g.live > 0 {
		if g.remain == 0 {
			g.cur = (g.cur + 1) % len(g.parts)
			g.remain = g.lens[g.cur]
		}
		p := &g.parts[g.cur]
		if p.done {
			g.remain = 0
			continue
		}
		got := p.read(dst[n:n+min(g.remain, len(dst)-n)], g.abs)
		n += got
		g.abs += uint64(got)
		g.remain -= got
		if p.done {
			g.remain = 0
			g.live--
		}
	}
	return n
}
