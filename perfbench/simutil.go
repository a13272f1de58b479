package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"mlpcache/internal/experiments"
	"mlpcache/internal/sim"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// cell is one single-core simulation: a benchmark model, the seed of its
// instruction stream, the L2 policy and the instruction budget.
type cell struct {
	Bench  string
	Seed   uint64
	Policy sim.PolicySpec
	Budget uint64
}

// config is the paper's baseline machine bounded to the cell's budget.
func (c cell) config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = c.Budget
	cfg.Policy = c.Policy
	return cfg
}

// source builds the cell's instruction stream afresh.
func (c cell) source() trace.Source {
	w, ok := workload.ByName(c.Bench)
	if !ok {
		// Cells name only the benchmarks listed in this package.
		panic("perfbench: unknown benchmark " + c.Bench)
	}
	return w.Build(c.Seed)
}

// materialise draws n instructions from src into buf, reusing its
// storage.
func materialise(src trace.Source, n uint64, buf []trace.Instr) []trace.Instr {
	buf = buf[:0]
	for uint64(len(buf)) < n {
		in, ok := src.Next()
		if !ok {
			break
		}
		buf = append(buf, in)
	}
	return buf
}

// protect converts a panic escaping a library call (the experiment
// runner panics on simulator bugs) into an error for the op accounting.
func protect(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// simAgg sums the simulated statistics the per-layer ledger reports.
// They depend only on the simulated inputs, so they repeat exactly.
// Merges are the memory system's merged L2 misses: accesses that joined
// an in-flight MSHR entry for the same block.
type simAgg struct {
	coreCycles, fullWindow, memStall uint64
	instr, l2Acc, l2Miss             uint64
	allocs, merges                   uint64
	peak                             int
	reads, bankWait, busWait         uint64
}

func (a *simAgg) add(res sim.Result) {
	a.coreCycles += res.Cycles
	a.fullWindow += res.CPU.FullWindowCycles
	a.memStall += res.CPU.MemStallCycles
	a.instr += res.Instructions
	a.l2Acc += res.L2.Accesses()
	a.l2Miss += res.L2.Misses
	a.allocs += res.MSHR.Allocations
	a.merges += res.Mem.MergedMisses
	a.peak = max(a.peak, res.MSHR.Peak)
	a.reads += res.DRAM.Reads
	a.bankWait += res.DRAM.BankWaitCycles
	a.busWait += res.DRAM.BusWaitCycles
}

func (a *simAgg) addMulti(res sim.MultiResult) {
	for _, c := range res.Cores {
		a.coreCycles += res.Cycles
		a.fullWindow += c.CPU.FullWindowCycles
		a.memStall += c.CPU.MemStallCycles
		a.allocs += c.MSHR.Allocations
		a.merges += c.Mem.MergedMisses
		a.peak = max(a.peak, c.MSHR.Peak)
	}
	a.instr += res.Instructions()
	a.l2Acc += res.L2.Accesses()
	a.l2Miss += res.L2.Misses
	a.reads += res.DRAM.Reads
	a.bankWait += res.DRAM.BankWaitCycles
	a.busWait += res.DRAM.BusWaitCycles
}

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// report sets the simulated per-layer metrics.
func (a simAgg) report(r *run) {
	r.set("cpu.full_window_frac", "ratio", ratio(a.fullWindow, a.coreCycles))
	r.set("cpu.mem_stall_frac", "ratio", ratio(a.memStall, a.coreCycles))
	r.set("cache.l2_accesses_per_kinstr", "accesses/kinstr", 1000*ratio(a.l2Acc, a.instr))
	r.set("cache.l2_miss_ratio", "ratio", ratio(a.l2Miss, a.l2Acc))
	r.set("mshr.peak", "entries", float64(a.peak))
	r.set("mshr.merges_per_alloc", "ratio", ratio(a.merges, a.allocs))
	r.set("dram.bank_wait_per_read", "cycles", ratio(a.bankWait, a.reads))
	r.set("dram.bus_wait_per_read", "cycles", ratio(a.busWait, a.reads))
}

// The accuracy check runs Figure 5 (LIN(4) against LRU) at the seed the
// workload models were tuned at and at one held-back seed, against the
// paper's reported ΔMISS/ΔIPC insets recorded in workload.Spec. Those
// are the paper's published simulation results, not hardware
// measurements. The budget is long enough for the 1 MB L2 to fill from
// its cold start; the inputs are fixed, so the values repeat exactly.
var accuracyBenches = []string{"art", "mcf", "parser", "apsi"}

const (
	accuracyBudget = 1_000_000
	tunedSeed      = 42
	heldOutSeed    = 7
)

// accuracyRow is one Figure 5 row of the accuracy check.
type accuracyRow struct {
	Seed               uint64
	Bench              string
	MissPct, PaperMiss float64
	IPCPct, PaperIPC   float64
	Agree              bool
}

// accuracyRecord is the accuracy check's outcome. It depends only on
// the program, so it is stored under the executable's SHA-256 and
// reused by later runs of the same binary: the simulations behind it
// are deterministic, and recomputing them in every run would only
// lengthen it.
type accuracyRecord struct {
	Rows []accuracyRow
	Err  string
}

// accuracy sets paper_sign_agree and paper_ipc_err_pp at both seeds.
func accuracy(r *run) {
	rec, cached := loadAccuracy(r.outDir)
	if !cached {
		rec = computeAccuracy(r.nproc)
		storeAccuracy(r.outDir, rec)
	}
	r.attempted++
	r.check(rec.Err == "", "accuracy: %s", rec.Err)
	for _, s := range []struct {
		seed   uint64
		suffix string
	}{{tunedSeed, ""}, {heldOutSeed, ".heldout"}} {
		agree, errSum, n := 0, 0.0, 0
		for _, row := range rec.Rows {
			if row.Seed != s.seed {
				continue
			}
			n++
			if row.Agree {
				agree++
			}
			errSum += math.Abs(row.IPCPct - row.PaperIPC)
			fmt.Printf("accuracy seed=%d %s: dMISS %+.1f%% [paper %+.0f%%] dIPC %+.1f%% [paper %+.0f%%] agree=%t\n",
				row.Seed, row.Bench, row.MissPct, row.PaperMiss, row.IPCPct, row.PaperIPC, row.Agree)
		}
		r.check(n == len(accuracyBenches), "accuracy at seed %d produced %d rows", s.seed, n)
		r.set("paper_sign_agree"+s.suffix, "rows", float64(agree))
		r.set("paper_ipc_err_pp"+s.suffix, "pp", errSum/float64(max(1, n)))
	}
	if cached {
		fmt.Println("accuracy: reused the record of an earlier run of this same executable")
	}
}

// computeAccuracy runs Figure 5 at both seeds.
func computeAccuracy(workers int) accuracyRecord {
	var rec accuracyRecord
	for _, seed := range []uint64{tunedSeed, heldOutSeed} {
		rn := experiments.NewRunner(accuracyBudget, seed)
		rn.Benchmarks = accuracyBenches
		rn.Workers = workers
		var fig experiments.Figure5Result
		err := protect(func() error {
			if err := rn.Validate(); err != nil {
				return err
			}
			fig = experiments.Figure5(rn)
			return rn.Err()
		})
		if err != nil {
			rec.Err = err.Error()
			return rec
		}
		for _, row := range fig.Rows {
			rec.Rows = append(rec.Rows, accuracyRow{Seed: seed, Bench: row.Bench,
				MissPct: row.MissDeltaPct, PaperMiss: row.PaperMissPct,
				IPCPct: row.IPCDeltaPct, PaperIPC: row.PaperIPCPct, Agree: row.DirectionsAgree()})
		}
	}
	return rec
}

// accuracyPath names the record of the running executable, or "" when
// the executable cannot be read.
func accuracyPath(dir string) string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	raw, err := os.ReadFile(exe)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(raw)
	return filepath.Join(dir, "accuracy", hex.EncodeToString(sum[:8])+".json")
}

func loadAccuracy(dir string) (accuracyRecord, bool) {
	var rec accuracyRecord
	path := accuracyPath(dir)
	if path == "" {
		return rec, false
	}
	raw, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(raw, &rec) != nil {
		return accuracyRecord{}, false
	}
	return rec, true
}

// storeAccuracy writes the record atomically; a failure only costs the
// next run a recomputation, so it is reported and otherwise ignored.
func storeAccuracy(dir string, rec accuracyRecord) {
	path := accuracyPath(dir)
	if path == "" || rec.Err != "" {
		return
	}
	raw, err := json.Marshal(rec)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		tmp := path + ".tmp"
		if err = os.WriteFile(tmp, raw, 0o644); err == nil {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: storing the accuracy record: %v\n", err)
	}
}
