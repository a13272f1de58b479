package sim

import (
	"reflect"
	"testing"

	"mlpcache/internal/workload"
)

// TestMulticoreSingleCoreEquivalence is the multi-core projection's
// correctness anchor: a one-core RunMulti must reproduce Run's Result
// bit for bit — cycles, IPC, every counter block, the cost histogram and
// the Table 1 deltas — across the audited policy sweep. Both entry
// points drive one run loop; this test keeps their projections onto
// Result and MultiResult in agreement.
func TestMulticoreSingleCoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is a long test")
	}
	for _, bench := range []string{"mcf", "parser"} {
		spec, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("benchmark %q missing", bench)
		}
		for _, kind := range AllPolicies {
			kind := kind
			t.Run(bench+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cfg.MaxInstructions = 60_000
				cfg.Policy = PolicySpec{Kind: kind, Seed: 7}
				if kind == PolicySBAR {
					cfg.Policy.RandDynamic = true
					cfg.EpochInstructions = 20_000
				}
				cfg.Audit = true
				cfg.AuditEvery = 2048
				legacy, err := Run(cfg, spec.Build(11))
				if err != nil {
					t.Fatalf("single-core run failed: %v", err)
				}
				multi, err := RunMulti(cfg, spec.Build(11))
				if err != nil {
					t.Fatalf("one-core multi run failed: %v", err)
				}
				if legacy.Audit == nil || !legacy.Audit.Ok() {
					t.Fatalf("single-core run did not audit clean: %+v", legacy.Audit)
				}
				if multi.Audit == nil || !multi.Audit.Ok() {
					t.Fatalf("multi-core run did not audit clean: %+v", multi.Audit)
				}
				if len(multi.Cores) != 1 {
					t.Fatalf("one-core run reported %d cores", len(multi.Cores))
				}
				// Reassemble the multi-core result in the single-core
				// Result's shape; every shared field must match exactly.
				// Both audit reports were checked clean above and are
				// excluded.
				c0 := multi.Cores[0]
				got := Result{
					Policy:       multi.Policy,
					Instructions: multi.Instructions(),
					Cycles:       multi.Cycles,
					IPC:          multi.IPC(),
					CPU:          c0.CPU,
					Bpred:        c0.Bpred,
					L1:           c0.L1,
					L2:           multi.L2,
					DRAM:         multi.DRAM,
					Mem:          multi.Mem,
					MSHR:         c0.MSHR,
					CostHist:     multi.CostHist,
					Delta:        multi.Delta,
					Hybrid:       multi.Hybrid,
					Learn:        multi.Learn,
				}
				legacy.Audit, legacy.Series = nil, nil
				if !reflect.DeepEqual(got, legacy) {
					t.Fatalf("one-core multi result diverges from single-core engine:\nmulti:  %+v\nlegacy: %+v", got, legacy)
				}
				if !reflect.DeepEqual(c0.CostHist, multi.CostHist) {
					t.Fatalf("one-core per-core histogram diverges from aggregate")
				}
				if multi.CrossCoreMerges != 0 {
					t.Fatalf("one-core run counted %d cross-core merges", multi.CrossCoreMerges)
				}
			})
		}
	}
}

// TestMulticoreDeterminism asserts that a contended two-core run is a
// pure function of its inputs: the same configuration and sources give
// byte-identical results run to run, including under rand-dynamic SBAR
// and auditing. The experiment tables depend on this.
func TestMulticoreDeterminism(t *testing.T) {
	mcf, _ := workload.ByName("mcf")
	art, _ := workload.ByName("art")
	cfg := DefaultConfig()
	cfg.MaxInstructions = 40_000
	cfg.Policy = PolicySpec{Kind: PolicySBAR, Seed: 7, RandDynamic: true}
	cfg.EpochInstructions = 20_000
	cfg.Audit = true
	cfg.AuditEvery = 4096
	run := func() MultiResult {
		t.Helper()
		res, err := RunMulti(cfg, mcf.Build(11), art.Build(13))
		if err != nil {
			t.Fatalf("two-core run failed: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two-core run is not deterministic:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if len(a.PselValues) != 2 {
		t.Fatalf("partitioned SBAR reported %d per-thread selectors, want 2", len(a.PselValues))
	}
	for i, c := range a.Cores {
		if c.Instructions != cfg.MaxInstructions {
			t.Fatalf("core %d retired %d instructions, want %d", i, c.Instructions, cfg.MaxInstructions)
		}
	}
}

// TestMulticoreRejectsSingleCoreFeatures pins validateMulti: the
// single-core-only features must fail fast with a typed error.
func TestMulticoreRejectsSingleCoreFeatures(t *testing.T) {
	mcf, _ := workload.ByName("mcf")
	base := DefaultConfig()
	base.MaxInstructions = 1_000
	for name, mutate := range map[string]func(*Config){
		"sample-interval":   func(c *Config) { c.SampleInterval = 100 },
		"snapshot-interval": func(c *Config) { c.SnapshotInterval = 100 },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := RunMulti(cfg, mcf.Build(1)); err == nil {
			t.Errorf("%s: RunMulti accepted an unsupported config", name)
		}
	}
	if _, err := RunMulti(base); err == nil {
		t.Errorf("RunMulti accepted zero sources")
	}
}
