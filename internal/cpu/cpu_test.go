package cpu

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"mlpcache/internal/simerr"
	"mlpcache/internal/trace"
)

// fakeMem services loads with a fixed latency and optional rejection
// schedule.
type fakeMem struct {
	latency   uint64
	rejects   int // reject the first N accesses
	accesses  int
	writeSeen int
}

func (m *fakeMem) Access(addr uint64, write bool, now uint64) (uint64, bool) {
	if m.rejects > 0 {
		m.rejects--
		return 0, false
	}
	m.accesses++
	if write {
		m.writeSeen++
	}
	return now + m.latency, true
}

// run drives the core to completion and returns total cycles.
func run(t *testing.T, c *CPU, limit uint64) uint64 {
	t.Helper()
	var now uint64
	for now = 1; now < limit; now++ {
		c.Cycle(now)
		if c.Finished() {
			return now
		}
		if !c.DidWork() {
			if wake := c.NextEvent(now); wake != ^uint64(0) && wake > now+1 {
				c.NoteSkipped(wake - now - 1)
				now = wake - 1
			}
		}
	}
	t.Fatalf("core did not finish within %d cycles", limit)
	return 0
}

func repeat(in trace.Instr, n int) []trace.Instr {
	out := make([]trace.Instr, n)
	for i := range out {
		out[i] = in
	}
	return out
}

func TestIndependentALUIPCIsRetireWidth(t *testing.T) {
	const n = 8000
	c := New(DefaultConfig(), &fakeMem{latency: 2}, trace.NewSliceSource(repeat(trace.Instr{Kind: trace.Int}, n)))
	cycles := run(t, c, 100_000)
	ipc := float64(n) / float64(cycles)
	if ipc < 7 || ipc > 8 {
		t.Fatalf("independent ALU IPC = %.2f, want ≈ 8", ipc)
	}
	if c.Stats().Retired != n {
		t.Fatalf("retired %d, want %d", c.Stats().Retired, n)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	const n = 2000
	ins := repeat(trace.Instr{Kind: trace.Int, Dep: 1}, n)
	c := New(DefaultConfig(), &fakeMem{latency: 2}, trace.NewSliceSource(ins))
	cycles := run(t, c, 100_000)
	// A 1-cycle chain retires ~1 instruction per cycle.
	if ipc := float64(n) / float64(cycles); ipc > 1.2 {
		t.Fatalf("dependent-chain IPC = %.2f, want ≈ 1", ipc)
	}
}

func TestFunctionalUnitLatencies(t *testing.T) {
	// A chain of dependent divides (16 cycles each) is 16x slower than a
	// chain of dependent INTs.
	mk := func(k trace.Kind) uint64 {
		ins := repeat(trace.Instr{Kind: k, Dep: 1}, 500)
		c := New(DefaultConfig(), &fakeMem{latency: 2}, trace.NewSliceSource(ins))
		return run(t, c, 1_000_000)
	}
	intCycles, divCycles := mk(trace.Int), mk(trace.Div)
	ratio := float64(divCycles) / float64(intCycles)
	if ratio < 12 || ratio > 20 {
		t.Fatalf("div/int cycle ratio = %.1f, want ≈ 16", ratio)
	}
}

func TestLoadChainPaysMemoryLatency(t *testing.T) {
	const n = 100
	ins := repeat(trace.Instr{Kind: trace.Load, Addr: 64, Dep: 1}, n)
	mem := &fakeMem{latency: 100}
	c := New(DefaultConfig(), mem, trace.NewSliceSource(ins))
	cycles := run(t, c, 1_000_000)
	if cycles < 100*uint64(n-1) {
		t.Fatalf("dependent loads finished in %d cycles, want >= %d", cycles, 100*(n-1))
	}
	if mem.accesses != n {
		t.Fatalf("memory saw %d accesses, want %d", mem.accesses, n)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	const n = 100
	ins := repeat(trace.Instr{Kind: trace.Load, Addr: 64}, n)
	c := New(DefaultConfig(), &fakeMem{latency: 100}, trace.NewSliceSource(ins))
	cycles := run(t, c, 1_000_000)
	// With 2 memory ports and 100-cycle latency, 100 loads overlap
	// heavily: far faster than serial (100·100).
	if cycles > 2000 {
		t.Fatalf("independent loads took %d cycles — no overlap?", cycles)
	}
}

func TestWindowLimitsParallelism(t *testing.T) {
	// Loads spaced by window-filling filler: only window/(gap+1) loads
	// can be outstanding. With gap 127 (window 128), loads serialize.
	var ins []trace.Instr
	for i := 0; i < 50; i++ {
		ins = append(ins, trace.Instr{Kind: trace.Load, Addr: 64})
		ins = append(ins, repeat(trace.Instr{Kind: trace.Int, Dep: 1}, 127)...)
	}
	c := New(DefaultConfig(), &fakeMem{latency: 300}, trace.NewSliceSource(ins))
	cycles := run(t, c, 1_000_000)
	if cycles < 50*150 {
		t.Fatalf("window should have limited overlap; took only %d cycles", cycles)
	}
}

func TestStoresRetireWithoutWaiting(t *testing.T) {
	const n = 200
	ins := repeat(trace.Instr{Kind: trace.Store, Addr: 64}, n)
	mem := &fakeMem{latency: 400}
	c := New(DefaultConfig(), mem, trace.NewSliceSource(ins))
	cycles := run(t, c, 1_000_000)
	// 200 stores at 2 ports/cycle with a 128-entry store buffer: the
	// buffer fills (128), then drains at the 400-cycle latency.
	if cycles > 5000 {
		t.Fatalf("stores blocked the window: %d cycles", cycles)
	}
	if mem.writeSeen != n {
		t.Fatalf("memory saw %d writes, want %d", mem.writeSeen, n)
	}
	if c.Stats().Stores != n {
		t.Fatalf("retired %d stores, want %d", c.Stats().Stores, n)
	}
}

func TestStoreBufferFullBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StoreBufferEntries = 2
	ins := repeat(trace.Instr{Kind: trace.Store, Addr: 64}, 50)
	c := New(cfg, &fakeMem{latency: 100}, trace.NewSliceSource(ins))
	cycles := run(t, c, 1_000_000)
	if c.Stats().StoreBufferFullEvents == 0 {
		t.Fatal("expected store-buffer-full events")
	}
	// 50 stores through a 2-entry buffer at 100-cycle drain ≈ 2 per 100.
	if cycles < 2000 {
		t.Fatalf("tiny store buffer should throttle: %d cycles", cycles)
	}
}

func TestMispredictStallsFetch(t *testing.T) {
	mk := func(mispredict bool) uint64 {
		var ins []trace.Instr
		for i := 0; i < 200; i++ {
			ins = append(ins, trace.Instr{Kind: trace.Branch, Mispredict: mispredict})
			ins = append(ins, repeat(trace.Instr{Kind: trace.Int}, 7)...)
		}
		c := New(DefaultConfig(), &fakeMem{latency: 2}, trace.NewSliceSource(ins))
		cycles := run(t, c, 1_000_000)
		if mispredict && c.Stats().Mispredicts != 200 {
			t.Fatalf("mispredicts = %d, want 200", c.Stats().Mispredicts)
		}
		return cycles
	}
	good, bad := mk(false), mk(true)
	// Each mispredict costs >= the 15-cycle minimum penalty.
	if bad < good+200*15 {
		t.Fatalf("mispredicted run %d vs clean %d: penalty missing", bad, good)
	}
}

func TestMSHRRejectionRetries(t *testing.T) {
	ins := repeat(trace.Instr{Kind: trace.Load, Addr: 64}, 5)
	mem := &fakeMem{latency: 10, rejects: 7}
	c := New(DefaultConfig(), mem, trace.NewSliceSource(ins))
	run(t, c, 100_000)
	if c.Stats().MSHRRejects != 7 {
		t.Fatalf("rejects = %d, want 7", c.Stats().MSHRRejects)
	}
	if mem.accesses != 5 {
		t.Fatalf("accesses = %d, want 5 (all retried)", mem.accesses)
	}
}

func TestMemStallAccounting(t *testing.T) {
	// One isolated long load between filler: the window drains, then
	// stalls on the load.
	var ins []trace.Instr
	ins = append(ins, trace.Instr{Kind: trace.Load, Addr: 64})
	ins = append(ins, repeat(trace.Instr{Kind: trace.Int, Dep: 1}, 4)...)
	c := New(DefaultConfig(), &fakeMem{latency: 500}, trace.NewSliceSource(ins))
	run(t, c, 100_000)
	st := c.Stats()
	if st.MemStallCycles < 400 {
		t.Fatalf("mem stall cycles = %d, want most of the 500-cycle load", st.MemStallCycles)
	}
	if st.MemStallEpisodes != 1 {
		t.Fatalf("episodes = %d, want 1", st.MemStallEpisodes)
	}
}

func TestFinishedAndEmptyRun(t *testing.T) {
	c := New(DefaultConfig(), &fakeMem{latency: 2}, trace.NewSliceSource(nil))
	c.Cycle(1)
	if !c.Finished() {
		t.Fatal("empty source should finish immediately")
	}
}

func TestDepBeyondWindowTreatedAsRetired(t *testing.T) {
	// Dep distance far larger than anything in flight: ready at once.
	ins := []trace.Instr{
		{Kind: trace.Int},
		{Kind: trace.Int, Dep: 2000},
	}
	c := New(DefaultConfig(), &fakeMem{latency: 2}, trace.NewSliceSource(ins))
	cycles := run(t, c, 1000)
	if cycles > 10 {
		t.Fatalf("distant dep stalled the core: %d cycles", cycles)
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	cases := []func(){
		func() { New(Config{}, &fakeMem{}, trace.NewSliceSource(nil)) },
		func() { New(DefaultConfig(), nil, trace.NewSliceSource(nil)) },
		func() { New(DefaultConfig(), &fakeMem{}, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestZeroStoreBufferRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StoreBufferEntries = 0
	if err := cfg.Validate(); !errors.Is(err, simerr.ErrBadConfig) {
		t.Fatalf("Validate() = %v, want ErrBadConfig", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a zero-entry store buffer")
		}
	}()
	New(cfg, &fakeMem{latency: 2}, trace.NewSliceSource(nil))
}

// access is one call the core made into its memory system.
type access struct {
	addr     uint64
	write    bool
	now      uint64
	accepted bool
}

// logMem records every access. Latency and refusals are pure functions
// of the address, the cycle and the call count, so two cores that make
// the same calls see the same answers.
type logMem struct {
	log    []access
	lat    func(addr, now uint64) uint64
	reject func(call int, addr, now uint64) bool
}

func (m *logMem) Access(addr uint64, write bool, now uint64) (uint64, bool) {
	ok := m.reject == nil || !m.reject(len(m.log), addr, now)
	m.log = append(m.log, access{addr, write, now, ok})
	if !ok {
		return 0, false
	}
	return now + m.lat(addr, now), true
}

func fixedLat(n uint64) func(uint64, uint64) uint64 {
	return func(uint64, uint64) uint64 { return n }
}

// retireLog steps the core through every cycle up to limit (no
// fast-forward) and returns how many instructions retired in each.
func retireLog(c *CPU, limit uint64) []int {
	var out []int
	for now := uint64(1); now <= limit && !c.Finished(); now++ {
		out = append(out, c.Cycle(now))
	}
	return out
}

func TestZeroLatencyWakesInSameCycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IntLat = 0
	// A chain of seven zero-latency INTs feeding a load, all fetched in
	// cycle 1: the whole chain and the load must issue in cycle 2.
	ins := repeat(trace.Instr{Kind: trace.Int, Dep: 1}, 7)
	ins = append(ins, trace.Instr{Kind: trace.Load, Addr: 0x40, Dep: 1})
	mem := &logMem{lat: fixedLat(5)}
	c := New(cfg, mem, trace.NewSliceSource(ins))
	got := retireLog(c, 100)
	want := []access{{0x40, false, 2, true}}
	if !reflect.DeepEqual(mem.log, want) {
		t.Fatalf("accesses = %+v, want %+v", mem.log, want)
	}
	// The seven INTs completed in cycle 2 and retire together in cycle 3;
	// the load lands at 2+5.
	if got[2] != 7 || got[6] != 1 {
		t.Fatalf("retired per cycle = %v, want 7 in cycle 3 and 1 in cycle 7", got)
	}
}

func TestWideFanOutIssuesOldestFirst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IssueWidth = 3
	cfg.MemPorts = 8
	// One producer load, then seven loads that all depend on it: when it
	// lands they issue three per cycle in age order.
	ins := []trace.Instr{{Kind: trace.Load, Addr: 0x1000}}
	for i := 1; i <= 7; i++ {
		ins = append(ins, trace.Instr{Kind: trace.Load, Addr: uint64(i) * 0x40, Dep: int32(i)})
	}
	mem := &logMem{lat: fixedLat(10)}
	c := New(cfg, mem, trace.NewSliceSource(ins))
	run(t, c, 1000)
	want := []access{{0x1000, false, 2, true}}
	for i := 1; i <= 7; i++ {
		want = append(want, access{uint64(i) * 0x40, false, 12 + uint64(i-1)/3, true})
	}
	if !reflect.DeepEqual(mem.log, want) {
		t.Fatalf("accesses =\n%+v\nwant\n%+v", mem.log, want)
	}
}

func TestRejectedLoadKeepsPortAndAge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemPorts = 2
	ins := []trace.Instr{
		{Kind: trace.Load, Addr: 0xA0},
		{Kind: trace.Load, Addr: 0xB0},
		{Kind: trace.Load, Addr: 0xC0},
	}
	mem := &logMem{lat: fixedLat(10), reject: func(call int, _, _ uint64) bool { return call == 0 }}
	c := New(cfg, mem, trace.NewSliceSource(ins))
	run(t, c, 1000)
	// Cycle 2: A is refused but still spends a port, so only B goes and C
	// waits. Cycle 3: A retries ahead of the younger C.
	want := []access{
		{0xA0, false, 2, false},
		{0xB0, false, 2, true},
		{0xA0, false, 3, true},
		{0xC0, false, 3, true},
	}
	if !reflect.DeepEqual(mem.log, want) {
		t.Fatalf("accesses =\n%+v\nwant\n%+v", mem.log, want)
	}
	if c.Stats().MSHRRejects != 1 {
		t.Fatalf("MSHRRejects = %d, want 1", c.Stats().MSHRRejects)
	}
}

// randomStream draws a mixed stream whose dependences reach up to two
// windows back, so producers sit on both sides of the ring's wrap.
func randomStream(seed int64, n, rob int) []trace.Instr {
	rng := rand.New(rand.NewSource(seed))
	kinds := []trace.Kind{trace.Int, trace.Int, trace.Int, trace.Mul, trace.FP, trace.Div,
		trace.Load, trace.Load, trace.Load, trace.Store, trace.Branch}
	out := make([]trace.Instr, n)
	for i := range out {
		in := trace.Instr{Kind: kinds[rng.Intn(len(kinds))]}
		switch r := rng.Intn(4); {
		case r == 0:
			in.Dep = int32(1 + rng.Intn(2*rob))
		case r == 1:
			in.Dep = int32(1 + rng.Intn(4))
		}
		switch in.Kind {
		case trace.Load, trace.Store:
			in.Addr = uint64(rng.Intn(64)) * 64
		case trace.Branch:
			in.Mispredict = rng.Intn(8) == 0
		}
		out[i] = in
	}
	return out
}

// refCore is a deliberately naive reference for the core: the window is
// a plain slice (retire reslices it, no ring), issue rescans every
// unissued entry each cycle and recomputes its readiness from the
// producer, and the loop steps every cycle with no fast-forward.
type refCore struct {
	cfg      Config
	mem      MemSystem
	src      trace.Source
	win      []refEntry
	base     uint64 // global index of win[0]
	next     uint64
	srcDone  bool
	blockedG uint64
	resumeAt uint64
	stores   []uint64
	inStall  bool
	st       Stats
}

type refEntry struct {
	in     trace.Instr
	issued bool
	doneAt uint64
}

func (r *refCore) done(e *refEntry, now uint64) bool { return e.issued && e.doneAt <= now }

func (r *refCore) cycle(now uint64) int {
	retired := 0
	for retired < r.cfg.RetireWidth && len(r.win) > 0 && r.done(&r.win[0], now) {
		switch e := r.win[0]; e.in.Kind {
		case trace.Load:
			r.st.Loads++
		case trace.Store:
			r.st.Stores++
		case trace.Branch:
			r.st.Branches++
			if e.in.Mispredict {
				r.st.Mispredicts++
			}
		}
		r.win = r.win[1:]
		r.base++
		r.st.Retired++
		retired++
	}
	if retired == 0 && len(r.win) > 0 && r.win[0].in.Kind.IsMem() && !r.done(&r.win[0], now) {
		r.st.MemStallCycles++
		if !r.inStall {
			r.st.MemStallEpisodes++
		}
		r.inStall = true
	} else {
		r.inStall = false
	}
	live := r.stores[:0]
	for _, d := range r.stores {
		if d > now {
			live = append(live, d)
		}
	}
	r.stores = live

	issued, ports := 0, 0
	for i := range r.win {
		if issued == r.cfg.IssueWidth {
			break
		}
		e := &r.win[i]
		if e.issued {
			continue
		}
		g := r.base + uint64(i)
		if d := uint64(e.in.Dep); e.in.Dep > 0 && d <= g && g-d >= r.base && !r.done(&r.win[g-d-r.base], now) {
			continue
		}
		var doneAt uint64
		switch e.in.Kind {
		case trace.Int:
			doneAt = now + r.cfg.IntLat
		case trace.Mul:
			doneAt = now + r.cfg.MulLat
		case trace.FP:
			doneAt = now + r.cfg.FPLat
		case trace.Div:
			doneAt = now + r.cfg.DivLat
		case trace.Branch:
			doneAt = now + 1
			if g == r.blockedG {
				r.resumeAt = doneAt + r.cfg.MispredictPenalty
			}
		case trace.Load, trace.Store:
			if ports == r.cfg.MemPorts {
				continue
			}
			write := e.in.Kind == trace.Store
			if write && len(r.stores) >= r.cfg.StoreBufferEntries {
				r.st.StoreBufferFullEvents++
				continue
			}
			ports++
			d, ok := r.mem.Access(e.in.Addr, write, now)
			if !ok {
				r.st.MSHRRejects++
				continue
			}
			doneAt = d
			if write {
				r.stores = append(r.stores, d)
				doneAt = now + 1
			}
		}
		e.issued, e.doneAt = true, doneAt
		issued++
	}

	if r.blockedG != noBranch {
		if r.resumeAt == 0 || now < r.resumeAt {
			r.st.FetchMispredictCycles++
			return retired
		}
		r.blockedG, r.resumeAt = noBranch, 0
	}
	if len(r.win) == r.cfg.ROBEntries {
		r.st.FullWindowCycles++
		return retired
	}
	for f := 0; f < r.cfg.FetchWidth && len(r.win) < r.cfg.ROBEntries && !r.srcDone; f++ {
		in, ok := r.src.Next()
		if !ok {
			r.srcDone = true
			break
		}
		in.Mispredict = in.Kind == trace.Branch && in.Mispredict
		r.win = append(r.win, refEntry{in: in})
		r.next++
		if in.Mispredict {
			r.blockedG = r.next - 1
			break
		}
	}
	return retired
}

// retirement is one cycle's nonzero retire count.
type retirement struct {
	now uint64
	n   int
}

// TestSchedulerMatchesReference drives the core (with fast-forward, the
// way the run loop does) and refCore (every cycle) over random streams
// and odd geometries — windows that are not multiples of 64, narrow
// issue, one memory port, zero-latency ALUs, a one-entry store buffer,
// refusals from the memory side — and requires identical memory calls,
// retirement timing and counters.
func TestSchedulerMatchesReference(t *testing.T) {
	lat := func(addr, now uint64) uint64 { return 1 + (addr/64*7+now)%40 }
	reject := func(call int, addr, now uint64) bool { return (addr/64+now)%5 == 0 }
	for _, rob := range []int{17, 64, 65, 128, 129} {
		for v := 0; v < 4; v++ {
			cfg := DefaultConfig()
			cfg.ROBEntries = rob
			switch v {
			case 1:
				cfg.IntLat, cfg.IssueWidth, cfg.MemPorts = 0, 3, 1
			case 2:
				cfg.StoreBufferEntries, cfg.FetchWidth = 1, 3
			case 3:
				cfg.IntLat, cfg.RetireWidth, cfg.IssueWidth = 0, 2, 16
			}
			ins := randomStream(int64(rob*10+v), 4000, rob)
			newMem := func() *logMem {
				m := &logMem{lat: lat}
				if v != 0 {
					m.reject = reject
				}
				return m
			}
			mem, refMem := newMem(), newMem()
			c := New(cfg, mem, trace.NewSliceSource(ins))
			ref := &refCore{cfg: cfg, mem: refMem, src: trace.NewSliceSource(ins), blockedG: noBranch}

			var got, want []retirement
			for now := uint64(1); !c.Finished(); now++ {
				if n := c.Cycle(now); n > 0 {
					got = append(got, retirement{now, n})
				}
				if !c.DidWork() {
					if wake := c.NextEvent(now); wake != ^uint64(0) && wake > now+1 {
						c.NoteSkipped(wake - now - 1)
						now = wake - 1
					}
				}
				if now > 1_000_000 {
					t.Fatalf("rob=%d v=%d: core did not finish", rob, v)
				}
			}
			for now := uint64(1); !(ref.srcDone && len(ref.win) == 0); now++ {
				if n := ref.cycle(now); n > 0 {
					want = append(want, retirement{now, n})
				}
				if now > 1_000_000 {
					t.Fatalf("rob=%d v=%d: reference did not finish", rob, v)
				}
			}
			if !reflect.DeepEqual(mem.log, refMem.log) {
				t.Fatalf("rob=%d v=%d: memory calls diverge (%d vs %d calls)", rob, v, len(mem.log), len(refMem.log))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rob=%d v=%d: retirement timing diverges", rob, v)
			}
			if c.Stats() != ref.st {
				t.Fatalf("rob=%d v=%d: stats\n%+v\nwant\n%+v", rob, v, c.Stats(), ref.st)
			}
		}
	}
}

func TestResetAfterAbandonedRunMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBEntries = 65
	cfg.StoreBufferEntries = 1
	ins := randomStream(3, 3000, cfg.ROBEntries)
	lat := func(addr, now uint64) uint64 { return 50 + addr%200 }

	fresh := &logMem{lat: lat}
	want := New(cfg, fresh, trace.NewSliceSource(ins))
	wantCycles := run(t, want, 10_000_000)

	// Abandon a run mid-flight, with consumers linked to in-flight
	// producers and refused stores holding ready bits.
	c := New(cfg, &logMem{lat: lat}, trace.NewSliceSource(randomStream(4, 3000, cfg.ROBEntries)))
	linked, ready := false, false
	for now := uint64(1); now < 400 && !(linked && ready); now++ {
		c.Cycle(now)
		linked, ready = false, false
		for i := 0; i < c.count; i++ {
			if c.rob[c.slot(c.headG+uint64(i))].firstCons != noSlot {
				linked = true
			}
		}
		for _, w := range c.ready {
			ready = ready || w != 0
		}
	}
	if !linked || !ready {
		t.Fatalf("abandoned run never had both linked consumers (%v) and ready bits (%v)", linked, ready)
	}

	reused := &logMem{lat: lat}
	c.Reset(cfg, reused, trace.NewSliceSource(ins))
	if gotCycles := run(t, c, 10_000_000); gotCycles != wantCycles {
		t.Fatalf("reset core took %d cycles, fresh core %d", gotCycles, wantCycles)
	}
	if c.Stats() != want.Stats() {
		t.Fatalf("reset core stats\n%+v\nwant\n%+v", c.Stats(), want.Stats())
	}
	if !reflect.DeepEqual(reused.log, fresh.log) {
		t.Fatal("reset core's memory calls differ from a fresh core's")
	}
}
