package trace

import "testing"

// This file fuzzes the interleavers' batch path against a reference
// that merges one instruction at a time, part by part, the way Mix and
// Phases did before they read in batches.

// refPart is the reference's sub-stream: it pulls instructions through
// Next and rewrites each dependence with the same 256-entry ring and
// clamp as part.read.
type refPart struct {
	src   Source
	ring  [depWindow]uint64
	count uint64
	done  bool
}

func (p *refPart) emit(absIndex uint64) (Instr, bool) {
	in, ok := p.src.Next()
	if !ok {
		p.done = true
		return Instr{}, false
	}
	if in.Dep > 0 {
		d := uint64(in.Dep)
		switch {
		case p.count == 0:
			in.Dep = 0
		case d > p.count:
			d = p.count
			fallthrough
		default:
			if d > depWindow {
				d = depWindow
			}
			producer := p.ring[(p.count-d)%depWindow]
			in.Dep = int32(absIndex - producer)
		}
	}
	p.ring[p.count%depWindow] = absIndex
	p.count++
	return in, true
}

// refMix re-sums the live weights on every pick.
type refMix struct {
	parts  []refPart
	meta   []MixPart
	rng    *RNG
	abs    uint64
	cur    int
	remain int
}

func newRefMix(seed uint64, parts ...MixPart) *refMix {
	m := &refMix{rng: NewRNG(seed), meta: parts}
	for i := range parts {
		if parts[i].Chunk <= 0 {
			parts[i].Chunk = 1
		}
		if parts[i].Weight <= 0 {
			parts[i].Weight = 1
		}
		m.parts = append(m.parts, refPart{src: parts[i].Src})
	}
	return m
}

func (m *refMix) Next() (Instr, bool) {
	for tries := 0; tries < len(m.parts)+1; tries++ {
		if m.remain == 0 {
			m.pick()
			if m.remain == 0 {
				return Instr{}, false
			}
		}
		in, ok := m.parts[m.cur].emit(m.abs)
		if ok {
			m.remain--
			m.abs++
			return in, true
		}
		m.remain = 0
	}
	return Instr{}, false
}

func (m *refMix) pick() {
	live := 0.0
	for i := range m.parts {
		if !m.parts[i].done {
			live += m.meta[i].Weight
		}
	}
	if live == 0 {
		return
	}
	x := m.rng.Float64() * live
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
	for i := len(m.parts) - 1; i >= 0; i-- {
		if !m.parts[i].done {
			m.cur = i
			m.remain = m.meta[i].Chunk
			return
		}
	}
}

type refPhases struct {
	parts  []refPart
	lens   []int
	cur    int
	remain int
	abs    uint64
}

func newRefPhases(ps ...Phase) *refPhases {
	g := &refPhases{}
	for _, p := range ps {
		g.parts = append(g.parts, refPart{src: p.Src})
		g.lens = append(g.lens, p.Len)
	}
	g.remain = g.lens[0]
	return g
}

func (g *refPhases) Next() (Instr, bool) {
	for tries := 0; tries <= len(g.parts); tries++ {
		if g.remain == 0 {
			g.cur = (g.cur + 1) % len(g.parts)
			g.remain = g.lens[g.cur]
		}
		if g.parts[g.cur].done {
			g.remain = 0
			continue
		}
		in, ok := g.parts[g.cur].emit(g.abs)
		if !ok {
			g.remain = 0
			continue
		}
		g.remain--
		g.abs++
		return in, true
	}
	return Instr{}, false
}

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes struct {
	b []byte
}

func (f *fuzzBytes) next() int {
	if len(f.b) == 0 {
		return 0
	}
	v := f.b[0]
	f.b = f.b[1:]
	return int(v)
}

// interleaveTree builds the same nested Mix/Phases tree twice from the
// fuzz input: once from this package's interleavers and once from the
// references. Leaves are finite SliceSources of 0–511 instructions,
// each tagged with its leaf and position, whose dependences include
// distances beyond both the part's start and the 256-entry ring.
type interleaveTree struct {
	in     fuzzBytes
	leaves int
}

func (t *interleaveTree) build(depth int) (real, ref Source) {
	kind := t.in.next() % 4
	if depth == 0 || kind < 2 {
		n := t.in.next() | (t.in.next()&1)<<8
		instrs := make([]Instr, n)
		for i := range instrs {
			dep := t.in.next()
			if dep >= 200 {
				dep = (dep - 200) * 6
			} else {
				dep %= 8
			}
			instrs[i] = Instr{Kind: Load, Addr: uint64(t.leaves)<<20 | uint64(i), Dep: int32(dep)}
		}
		t.leaves++
		return NewSliceSource(instrs), NewSliceSource(instrs)
	}
	children := 1 + t.in.next()%4
	if kind == 2 {
		seed := uint64(t.in.next())
		var realParts, refParts []MixPart
		for i := 0; i < children; i++ {
			weight := float64(t.in.next()%9) / 4 // 0 selects the default weight
			chunk := t.in.next() % 40            // 0 selects the default chunk
			a, b := t.build(depth - 1)
			realParts = append(realParts, MixPart{Src: a, Weight: weight, Chunk: chunk})
			refParts = append(refParts, MixPart{Src: b, Weight: weight, Chunk: chunk})
		}
		return NewMix(seed, realParts...), newRefMix(seed, refParts...)
	}
	var realPhases, refPhases []Phase
	for i := 0; i < children; i++ {
		n := 1 + t.in.next()%50
		a, b := t.build(depth - 1)
		realPhases = append(realPhases, Phase{Src: a, Len: n})
		refPhases = append(refPhases, Phase{Src: b, Len: n})
	}
	return NewPhases(realPhases...), newRefPhases(refPhases...)
}

// FuzzInterleaveRead checks that nested Mix and Phases trees over finite
// parts yield exactly the reference's stream — every field of every
// instruction, and the end of stream — whether drawn through Next or
// through trace.Read at fuzzed batch sizes.
func FuzzInterleaveRead(f *testing.F) {
	f.Add([]byte{2, 3, 7, 4, 1, 0, 40, 0, 3, 2, 0, 200, 255, 1, 5, 0, 9, 1, 230}, []byte{0, 1, 3, 64, 255})
	f.Add([]byte{3, 2, 10, 0, 90, 1, 1, 5, 2, 1, 250}, []byte{7})
	f.Add([]byte{2, 2, 1, 0, 0, 0, 0, 3, 255, 1, 2, 30, 3, 0, 2, 17, 1, 255}, []byte{0})
	f.Add([]byte{3, 3, 1, 3, 1, 0, 2, 0, 0, 255, 1}, []byte{1, 0, 200})
	f.Fuzz(func(t *testing.T, shape, sizes []byte) {
		tree := &interleaveTree{in: fuzzBytes{b: shape}}
		real, ref := tree.build(3)
		if len(sizes) == 0 {
			sizes = []byte{0}
		}
		buf := make([]Instr, 256)
		for n, i := 0, 0; ; i++ {
			size := int(sizes[i%len(sizes)])
			var got []Instr
			if size == 0 {
				if in, ok := real.Next(); ok {
					got = []Instr{in}
				}
				size = 1
			} else {
				got = buf[:Read(real, buf[:size])]
			}
			for k := 0; k < size; k++ {
				want, ok := ref.Next()
				switch {
				case !ok && k < len(got):
					t.Fatalf("instruction %d: got %+v past the reference's end", n+k, got[k])
				case ok && k >= len(got):
					t.Fatalf("instruction %d: stream ended, reference has %+v", n+k, want)
				case ok && got[k] != want:
					t.Fatalf("instruction %d: got %+v, want %+v", n+k, got[k], want)
				}
			}
			if len(got) < size {
				return
			}
			n += size
		}
	})
}
