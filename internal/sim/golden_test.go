package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"testing"

	"mlpcache/internal/bpred"
	"mlpcache/internal/stats"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// goldenDigest is the SHA-256 of every case in goldenCases. It was first
// recorded before the core's issue stage was rewritten around
// wakeup-driven readiness, and re-recorded on the same code when the
// 4-core cases stopped naming an engine. It is a referee independent of
// the engine's own equivalence tests: those compare the engine with
// variants of itself, while this pins the absolute output of the whole
// machine. Any change to simulated timing, counters or histograms moves
// it.
const goldenDigest = "5bf9c9ed48095a56200a504687351b498d85bcf115f660c3483adc145d444e68"

// histDigest is the exported view of a stats.Histogram, whose fields
// are private and would otherwise encode as {}.
type histDigest struct {
	Bins  []uint64
	Total uint64
	Mean  float64
}

func digestHist(h *stats.Histogram) *histDigest {
	if h == nil {
		return nil
	}
	return &histDigest{Bins: h.Bins(), Total: h.Total(), Mean: h.Mean()}
}

// writeJSON hashes the encoding/json form of v: deterministic field
// order, pointers followed rather than printed as addresses.
func writeJSON(t *testing.T, h hash.Hash, name string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(b)
	h.Write([]byte{'\n'})
}

type goldenCase struct {
	name  string
	cfg   Config
	bench []string // one source per core
	multi bool
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	base := DefaultConfig()
	base.MaxInstructions = 60_000
	for _, spec := range workload.All() {
		for _, kind := range []PolicyKind{PolicyLRU, PolicyLIN, PolicySBAR, PolicyCBSLocal, PolicyBandit} {
			cfg := base
			cfg.Policy = PolicySpec{Kind: kind, Seed: 7}
			cases = append(cases, goldenCase{name: spec.Name + "/" + string(kind), cfg: cfg, bench: []string{spec.Name}})
		}
	}
	for _, name := range []string{"mcf", "art", "parser"} {
		cfg := base
		bp := bpred.DefaultConfig()
		cfg.CPU.BranchPredictor = &bp
		cases = append(cases, goldenCase{name: name + "/bpred", cfg: cfg, bench: []string{name}})
	}
	odd := []struct {
		name string
		mod  func(*Config)
	}{
		{"intlat0", func(c *Config) { c.CPU.IntLat = 0 }},
		{"issue2-ports1", func(c *Config) { c.CPU.IssueWidth, c.CPU.MemPorts = 2, 1 }},
		{"rob17-sb2", func(c *Config) { c.CPU.ROBEntries, c.CPU.StoreBufferEntries = 17, 2 }},
		{"rob256-fetch4", func(c *Config) { c.CPU.ROBEntries, c.CPU.FetchWidth = 256, 4 }},
	}
	for _, o := range odd {
		for _, name := range []string{"mcf", "art", "parser", "ammp"} {
			cfg := base
			o.mod(&cfg)
			cases = append(cases, goldenCase{name: name + "/" + o.name, cfg: cfg, bench: []string{name}})
		}
	}
	mix := []string{"mcf", "art", "parser", "equake"}
	for _, kind := range []PolicyKind{PolicyLRU, PolicySBAR} {
		cfg := base
		cfg.MaxInstructions = 30_000
		cfg.Policy = PolicySpec{Kind: kind, Seed: 7}
		cases = append(cases, goldenCase{name: "4core/" + string(kind), cfg: cfg, bench: mix, multi: true})
	}
	return cases
}

// TestGoldenResultDigest runs a fixed sweep — every benchmark under the
// paper's policies, a live branch predictor, odd core geometries
// (zero-latency ALU, narrow issue, non-power-of-two windows, a tiny
// store buffer) and 4-core runs — and
// requires the SHA-256 of the full results to equal goldenDigest.
func TestGoldenResultDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is a long test")
	}
	cases := goldenCases()
	type out struct {
		single Result
		multi  MultiResult
		err    error
	}
	outs := make([]out, len(cases))
	// Run on a small worker pool; the digest is taken in case order.
	sem := make(chan struct{}, 2)
	done := make(chan struct{})
	for i := range cases {
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem; done <- struct{}{} }()
			c := cases[i]
			srcs := make([]trace.Source, len(c.bench))
			for j, name := range c.bench {
				spec, _ := workload.ByName(name)
				srcs[j] = spec.Build(uint64(11 + j))
			}
			if c.multi {
				outs[i].multi, outs[i].err = RunMulti(c.cfg, srcs...)
			} else {
				outs[i].single, outs[i].err = Run(c.cfg, srcs[0])
			}
		}(i)
	}
	for range cases {
		<-done
	}
	h := sha256.New()
	for i, c := range cases {
		o := outs[i]
		if o.err != nil {
			t.Fatalf("%s: %v", c.name, o.err)
		}
		if c.multi {
			writeJSON(t, h, c.name, o.multi)
			writeJSON(t, h, c.name+"/hist", digestHist(o.multi.CostHist))
			for j, core := range o.multi.Cores {
				writeJSON(t, h, c.name+"/core"+itoa(j)+"/hist", digestHist(core.CostHist))
			}
			continue
		}
		if o.single.Instructions != c.cfg.MaxInstructions {
			t.Fatalf("%s: retired %d, want %d", c.name, o.single.Instructions, c.cfg.MaxInstructions)
		}
		writeJSON(t, h, c.name, o.single)
		writeJSON(t, h, c.name+"/hist", digestHist(o.single.CostHist))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("golden digest over %d cases = %s, want %s", len(cases), got, goldenDigest)
	}
}
