package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"mlpcache/internal/faultinject"
	"mlpcache/internal/metrics"
	"mlpcache/internal/prefetch"
	"mlpcache/internal/workload"
)

// featureDigest is the SHA-256 over every case in featureCases: the
// single-core features beyond the paper's baseline machine — the stride
// prefetcher, the Capture access stream, fault injection, the Figure 11
// interval series and the snapshot gauges in a v2 event stream. It was
// recorded while these features still had a memory system of their own,
// before single-core runs moved onto the multi-core loop, so it pins
// that loop to the old outputs byte for byte.
const featureDigest = "8bfab17a0f0e91733747078044b8dbd477df44ba8d21fe1f789708aee30424bb"

// captureHasher is an AccessObserver that folds every callback into a
// running hash, so the digest covers the captured stream's exact order.
type captureHasher struct {
	h   hash.Hash
	n   int
	buf [18]byte
}

func (c *captureHasher) OnL2Access(block uint64, kind AccessKind, costQ uint8) {
	c.record(0, block, uint8(kind), costQ)
}

func (c *captureHasher) OnMissCost(block uint64, costQ uint8) { c.record(1, block, 0, costQ) }

func (c *captureHasher) record(op byte, block uint64, kind, costQ uint8) {
	c.buf[0] = op
	binary.LittleEndian.PutUint64(c.buf[1:], block)
	c.buf[9], c.buf[10] = kind, costQ
	c.h.Write(c.buf[:11])
	c.n++
}

type tracerFunc func(metrics.Event)

func (f tracerFunc) Emit(e metrics.Event) { f(e) }

type featureCase struct {
	name    string
	bench   string
	cfg     Config
	capture bool // hash the Capture stream
	events  bool // hash a v2 event stream with snapshots
}

func featureCases() []featureCase {
	base := DefaultConfig()
	base.MaxInstructions = 60_000
	pf := prefetch.DefaultConfig()
	with := func(kind PolicyKind, mod func(*Config)) Config {
		cfg := base
		cfg.Policy = PolicySpec{Kind: kind, Seed: 7}
		mod(&cfg)
		return cfg
	}
	var cases []featureCase
	for _, bench := range []string{"mgrid", "mcf", "art"} {
		for _, kind := range []PolicyKind{PolicyLRU, PolicySBAR} {
			// A 64 KB L2 evicts prefetched blocks before demand reaches
			// them, so the unused counter moves too.
			cases = append(cases, featureCase{name: bench + "/prefetch/" + string(kind), bench: bench,
				cfg: with(kind, func(c *Config) { c.Prefetch, c.L2.SizeBytes = &pf, 64*1024 })})
		}
	}
	for _, bench := range []string{"mcf", "parser"} {
		cases = append(cases,
			featureCase{name: bench + "/capture", bench: bench, capture: true,
				cfg: with(PolicyLIN, func(*Config) {})},
			featureCase{name: bench + "/capture+prefetch", bench: bench, capture: true,
				cfg: with(PolicyLRU, func(c *Config) { c.Prefetch = &pf })},
			featureCase{name: bench + "/faults", bench: bench,
				cfg: with(PolicySBAR, func(c *Config) {
					c.Faults = &faultinject.Plan{Seed: 3, DRAMJitterMax: 40, MSHRCapacity: 2, MSHRThrottleAfter: 20_000}
					c.Audit, c.AuditEvery = true, 4096
				})},
			featureCase{name: bench + "/series/sbar", bench: bench,
				cfg: with(PolicySBAR, func(c *Config) { c.SampleInterval = 5_000 })},
			featureCase{name: bench + "/series/cbs", bench: bench,
				cfg: with(PolicyCBSLocal, func(c *Config) { c.SampleInterval = 7_000 })},
			featureCase{name: bench + "/events+snapshots", bench: bench, events: true,
				cfg: with(PolicySBAR, func(c *Config) { c.SnapshotInterval = 10_000 })},
		)
	}
	return cases
}

// TestGoldenFeatureDigest runs featureCases and requires the SHA-256 of
// the full Results, cost histograms, hashed Capture streams and v2 event
// bytes to equal featureDigest. It also checks that the cases exercise
// what they are meant to: useful, late and unused prefetches, a non-empty
// capture stream, an engaged throttle, series points and snapshot events.
func TestGoldenFeatureDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is a long test")
	}
	h := sha256.New()
	var useful, late, unused uint64
	for _, c := range featureCases() {
		spec, _ := workload.ByName(c.bench)
		cfg := c.cfg
		var capt *captureHasher
		if c.capture {
			capt = &captureHasher{h: sha256.New()}
			cfg.Capture = capt
		}
		var ev bytes.Buffer
		var bt *metrics.BinaryTracer
		snaps := 0
		if c.events {
			bt = metrics.NewBinaryTracer(&ev, metrics.RunHeader{Bench: c.bench, Policy: cfg.Policy.String(), Seed: 11})
			cfg.Trace = tracerFunc(func(e metrics.Event) {
				if e.Type == metrics.EventSnapshotCostHist {
					snaps++
				}
				bt.Emit(e)
			})
		}
		res, err := Run(cfg, spec.Build(11))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Instructions != cfg.MaxInstructions {
			t.Fatalf("%s: retired %d, want %d", c.name, res.Instructions, cfg.MaxInstructions)
		}
		writeJSON(t, h, c.name, res)
		writeJSON(t, h, c.name+"/hist", digestHist(res.CostHist))
		useful += res.Mem.PrefetchUseful
		late += res.Mem.PrefetchLate
		unused += res.Mem.PrefetchUnused
		if capt != nil {
			if capt.n == 0 {
				t.Fatalf("%s: capture observed nothing", c.name)
			}
			writeJSON(t, h, c.name+"/capture", hex.EncodeToString(capt.h.Sum(nil)))
		}
		if bt != nil {
			if err := bt.Flush(); err != nil {
				t.Fatalf("%s: flush: %v", c.name, err)
			}
			if snaps == 0 {
				t.Fatalf("%s: event stream carries no snapshot events", c.name)
			}
			h.Write([]byte(c.name + "/events\x00"))
			h.Write(ev.Bytes())
		}
		if cfg.Faults != nil && (res.Audit == nil || res.CPU.MSHRRejects == 0) {
			t.Fatalf("%s: audit report %v, %d MSHR rejects under the throttle", c.name, res.Audit, res.CPU.MSHRRejects)
		}
		if cfg.SampleInterval > 0 && res.Series.IPC.Len() == 0 {
			t.Fatalf("%s: no series points", c.name)
		}
	}
	if useful == 0 || late == 0 || unused == 0 {
		t.Fatalf("prefetch cases left a counter at zero: useful %d, late %d, unused %d", useful, late, unused)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != featureDigest {
		t.Fatalf("feature digest = %s, want %s", got, featureDigest)
	}
}
