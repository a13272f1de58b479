package sim

import (
	"fmt"
	"math/bits"

	"mlpcache/internal/audit"
	"mlpcache/internal/core"
)

// buildAuditor assembles the invariant checkers for an audited run:
// structural checks on the shared L2 (recency-stack permutation,
// quantized-cost bounds), every core's own L1 recency and MSHR
// bookkeeping, agreement between the MSHR files and the in-flight fill
// table (extended to sharer sets), and — when a hybrid policy is racing —
// the selector and sampling-directory checks of the engine in use
// (SBAR/DIP share *core.SBAR, with every per-thread selector bounded
// when the PSEL is partitioned; CBS has its own).
func buildAuditor(cfg Config, mem *memHierarchy, hybrid core.Hybrid) *audit.Auditor {
	a := audit.New(cfg.AuditEvery,
		audit.RecencyPermutation("l2-recency", mem.l2),
		audit.CostQBound("l2-costq", mem.l2, 7),
		audit.Func("mshr-inflight", func(_ uint64, report func(string)) {
			// Every sharer of a pending fill must hold an MSHR entry for
			// the block, and each core's occupancy must equal its count
			// of in-flight sharer bits: per core, entries and fills are
			// created and retired together.
			perCore := make([]int, len(mem.ports))
			mem.inflight.Range(func(block uint64, f *fill) bool {
				for rest := f.sharers; rest != 0; rest &= rest - 1 {
					tid := bits.TrailingZeros64(rest)
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
