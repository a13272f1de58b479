// Acceptance tests for docs/OBSERVABILITY.md: the metric and event
// catalogs in that document are parsed and compared — in both
// directions — against what the simulator actually registers and
// emits, so the doc cannot drift from the code. The JSONL documents
// are round-tripped through strict decoders to pin the schemas.
package mlpcache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"mlpcache/internal/experiments"
	"mlpcache/internal/metrics"
	"mlpcache/internal/oracle"
	"mlpcache/internal/prefetch"
	"mlpcache/internal/service"
	"mlpcache/internal/sim"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// catalogRow matches one catalog table row in docs/OBSERVABILITY.md,
// capturing the backticked dotted name in the first column and the
// second column. Rows whose second column is a metric kind belong to
// the metric catalog; rows in the event table have prose there.
var catalogRow = regexp.MustCompile("^\\| `([a-z][a-z0-9_.]*)` \\| ([^|]*) \\|")

// templateRow matches the per-core template rows of the multi-core
// metric catalog (`core.<i>.NAME`); parseCatalogs expands `<i>` for
// every core of the covering multi-core run.
var templateRow = regexp.MustCompile("^\\| `core\\.<i>\\.([a-z][a-z0-9_.]*)` \\| ([^|]*) \\|")

// multicoreCores is how many cores the covering multi-core run uses —
// template rows expand to exactly this many concrete names.
const multicoreCores = 2

// parseCatalogs reads the observability contract and returns the
// documented metric catalog (name -> kind) and event-type set.
func parseCatalogs(t *testing.T) (map[string]metrics.Kind, map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("reading contract doc: %v", err)
	}
	kinds := map[string]metrics.Kind{
		"counter":   metrics.KindCounter,
		"gauge":     metrics.KindGauge,
		"histogram": metrics.KindHistogram,
		"series":    metrics.KindSeries,
	}
	docMetrics := map[string]metrics.Kind{}
	docEvents := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		m := catalogRow.FindStringSubmatch(line)
		if m == nil {
			// Per-core template rows: expand `<i>` for each core of
			// the covering multi-core run.
			if tm := templateRow.FindStringSubmatch(line); tm != nil {
				k, ok := kinds[strings.TrimSpace(tm[2])]
				if !ok {
					t.Errorf("template row %q has no metric kind", line)
					continue
				}
				for i := 0; i < multicoreCores; i++ {
					name := fmt.Sprintf("core.%d.%s", i, tm[1])
					if _, dup := docMetrics[name]; dup {
						t.Errorf("doc lists metric %q twice", name)
					}
					docMetrics[name] = k
				}
			}
			continue
		}
		name, second := m[1], strings.TrimSpace(m[2])
		if k, ok := kinds[second]; ok {
			if _, dup := docMetrics[name]; dup {
				t.Errorf("doc lists metric %q twice", name)
			}
			docMetrics[name] = k
		} else {
			docEvents[name] = true
		}
	}
	if len(docMetrics) == 0 || len(docEvents) == 0 {
		t.Fatalf("catalog parse found %d metrics, %d events — table format changed?",
			len(docMetrics), len(docEvents))
	}
	return docMetrics, docEvents
}

// observedRun runs one small simulation with event tracing into sink
// and returns its result. The covering configurations are chosen so
// that together they register every cataloged metric and emit every
// event type: an audited, sampled LRU run covers the unconditional,
// sampled and audited sections; an audited, sampled rand-dynamic SBAR
// run covers the hybrid section (twolf drives enough leader contests
// to move PSEL); a prefetch-enabled run produces miss.merge events
// (demand upgrades of late prefetches — the only merge source at this
// instruction budget).
func observedRun(t testing.TB, bench string, spec sim.PolicySpec, prefetchOn bool, sink metrics.Tracer) sim.Result {
	t.Helper()
	w, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 300_000
	cfg.SampleInterval = 50_000
	cfg.SnapshotInterval = 60_000 // emits every snapshot.* type when sink != nil
	cfg.Audit = true
	cfg.Policy = spec
	if spec.RandDynamic {
		cfg.EpochInstructions = 100_000
	}
	if prefetchOn {
		pcfg := prefetch.DefaultConfig()
		cfg.Prefetch = &pcfg
	}
	cfg.Trace = sink
	return sim.MustRun(cfg, w.Build(42))
}

func coveringRuns(t testing.TB, sink metrics.Tracer) []sim.Result {
	return []sim.Result{
		observedRun(t, "mcf", sim.PolicySpec{Kind: sim.PolicyLRU}, false, sink),
		observedRun(t, "twolf", sim.PolicySpec{
			Kind: sim.PolicySBAR, RandDynamic: true, Seed: 42,
		}, false, sink),
		observedRun(t, "mgrid", sim.PolicySpec{Kind: sim.PolicyLRU}, true, sink),
	}
}

// oracleRegistry captures one small LRU run, compares it against the
// offline oracles, and returns a registry holding only the oracle.*
// families — exactly what mlpsim -oracle adds to a run's registry.
func oracleRegistry(t testing.TB) *metrics.Registry {
	t.Helper()
	w, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("unknown benchmark mcf")
	}
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 120_000
	cap := oracle.NewCapture()
	cfg.Capture = cap
	sim.MustRun(cfg, w.Build(42))
	sets, err := cfg.L2.SetCount()
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	oracle.Compare(cap.Log(), sets, cfg.L2.Assoc).Observe(reg)
	return reg
}

// multicoreRegistry runs the covering multi-core simulation — two cores
// (mcf+art) sharing the L2 under audited rand-dynamic SBAR, so the
// partitioned per-thread selectors exist and core.<i>.psel_value
// registers — and returns its MultiResult registry: the multicore.*
// family plus every expanded core.<i>.* template row.
func multicoreRegistry(t testing.TB) *metrics.Registry {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 120_000
	cfg.Audit = true
	cfg.Policy = sim.PolicySpec{Kind: sim.PolicySBAR, RandDynamic: true, Seed: 42}
	cfg.EpochInstructions = 60_000
	var srcs []trace.Source
	for i, bench := range []string{"mcf", "art"} {
		w, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", bench)
		}
		srcs = append(srcs, w.Build(42+uint64(i)))
	}
	if len(srcs) != multicoreCores {
		t.Fatalf("covering mix has %d cores, template expansion assumes %d", len(srcs), multicoreCores)
	}
	res, err := sim.RunMulti(cfg, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	return res.Metrics()
}

// arenaRegistry returns the registry of a two-core run drawing from an
// arena, with the arena's recycling counters observed into it, so the
// arena.* family registers from ArenaStats.Observe.
func arenaRegistry(t testing.TB) *metrics.Registry {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 60_000
	cfg.Arena = sim.NewArena()
	var srcs []trace.Source
	for i, bench := range []string{"mcf", "art"} {
		w, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", bench)
		}
		srcs = append(srcs, w.Build(42+uint64(i)))
	}
	res, err := sim.RunMulti(cfg, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	reg := res.Metrics()
	cfg.Arena.Stats().Observe(reg)
	return reg
}

// learnRegistry returns the registry of the covering learned run — a
// bandit simulation, whose Stats populate every field observeLearn
// exports, so the full learn.* family (docs/LEARNED.md) registers.
func learnRegistry(t testing.TB) *metrics.Registry {
	t.Helper()
	w, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("unknown benchmark mcf")
	}
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 120_000
	cfg.Policy = sim.PolicySpec{Kind: sim.PolicyBandit, Seed: 42}
	return sim.MustRun(cfg, w.Build(42)).Metrics()
}

// serviceRegistry returns the sweep-service daemon's service.* family —
// what mlpserve's GET /metrics renders. Every service metric registers
// on any snapshot (zero-valued counters included), so no jobs need run.
func serviceRegistry(t testing.TB) *metrics.Registry {
	t.Helper()
	s, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return s.MetricsSnapshot()
}

// TestMetricCatalogMatchesEmission asserts set equality between the
// documented metric catalog and the union of names registered by the
// two covering runs — every documented metric is emitted, and every
// emitted metric is documented, with matching kinds.
func TestMetricCatalogMatchesEmission(t *testing.T) {
	docMetrics, _ := parseCatalogs(t)

	emitted := map[string]metrics.Kind{}
	for _, res := range coveringRuns(t, nil) {
		for _, s := range res.Metrics().Samples() {
			emitted[s.Name] = s.Kind
		}
	}
	// The oracle families (docs/OBSERVABILITY.md "Oracle runs only") are
	// registered by mlpsim -oracle via oracle.Comparison.Observe; a
	// captured run covers them.
	for _, s := range oracleRegistry(t).Samples() {
		emitted[s.Name] = s.Kind
	}
	// The learned-policy family (mlpsim -policy bandit/learned): learn.*.
	for _, s := range learnRegistry(t).Samples() {
		emitted[s.Name] = s.Kind
	}
	// The sweep-service daemon's service.* family (mlpserve /metrics).
	for _, s := range serviceRegistry(t).Samples() {
		emitted[s.Name] = s.Kind
	}
	// The multi-core families (mlpsim -cores N): multicore.* and the
	// per-core core.<i>.* groups the template rows expand to.
	for _, s := range multicoreRegistry(t).Samples() {
		emitted[s.Name] = s.Kind
	}
	// The arena recycling family: arena.*.
	for _, s := range arenaRegistry(t).Samples() {
		emitted[s.Name] = s.Kind
	}

	for name, kind := range docMetrics {
		got, ok := emitted[name]
		if !ok {
			t.Errorf("documented metric %q never registered by a covering run", name)
			continue
		}
		if got != kind {
			t.Errorf("metric %q: doc says %s, registry says %s", name, kind, got)
		}
	}
	for name := range emitted {
		if _, ok := docMetrics[name]; !ok {
			t.Errorf("registered metric %q missing from docs/OBSERVABILITY.md", name)
		}
	}
}

// TestEventCatalogMatchesEmission asserts the documented event types
// are exactly the types the metrics package defines, and that every
// one of them is actually emitted by the covering runs plus one
// experiment-runner invocation (the source of run.start).
func TestEventCatalogMatchesEmission(t *testing.T) {
	_, docEvents := parseCatalogs(t)

	defined := map[string]bool{}
	for _, ty := range metrics.AllEventTypes() {
		defined[string(ty)] = true
	}
	for ty := range docEvents {
		if !defined[ty] {
			t.Errorf("documented event type %q has no metrics.EventType constant", ty)
		}
	}
	for ty := range defined {
		if !docEvents[ty] {
			t.Errorf("event type %q missing from docs/OBSERVABILITY.md", ty)
		}
	}

	seen := map[metrics.EventType]bool{}
	sink := metrics.FuncTracer(func(ev metrics.Event) { seen[ev.Type] = true })
	coveringRuns(t, sink)

	r := experiments.NewRunner(60_000, 42)
	r.Benchmarks = []string{"mcf"}
	r.Trace = sink
	if err := experiments.RunByID(r, "fig2", io.Discard); err != nil {
		t.Fatalf("fig2: %v", err)
	}

	for ty := range defined {
		if !seen[metrics.EventType(ty)] {
			t.Errorf("event type %q documented but never emitted by the covering runs", ty)
		}
	}
	for ty := range seen {
		if !defined[string(ty)] {
			t.Errorf("emitted event type %q is undocumented", ty)
		}
	}
}

// strictLine decodes one JSONL line into v, rejecting unknown fields
// so schema drift in either direction fails the test.
func strictLine(t *testing.T, line []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("strict decode of %s: %v", line, err)
	}
}

// TestMetricsDocumentRoundTrip writes a full metrics document and
// strict-decodes every line: header first with the right schema, then
// one sorted sample per metric.
func TestMetricsDocumentRoundTrip(t *testing.T) {
	res := observedRun(t, "mcf", sim.PolicySpec{Kind: sim.PolicyLRU}, false, nil)
	var buf bytes.Buffer
	if err := res.Metrics().WriteJSONL(&buf, res.Header("mcf", 42)); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("empty document")
	}
	var hdr metrics.RunHeader
	strictLine(t, sc.Bytes(), &hdr)
	if hdr.Schema != metrics.MetricsSchema {
		t.Fatalf("header schema %q, want %q", hdr.Schema, metrics.MetricsSchema)
	}
	if hdr.Bench != "mcf" || hdr.Instructions == 0 || hdr.IPC == 0 {
		t.Fatalf("header not populated: %+v", hdr)
	}

	var prev string
	n := 0
	for sc.Scan() {
		var s metrics.Sample
		strictLine(t, sc.Bytes(), &s)
		if s.Name <= prev {
			t.Fatalf("samples not strictly sorted: %q after %q", s.Name, prev)
		}
		prev = s.Name
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != res.Metrics().Len() {
		t.Fatalf("decoded %d samples, registry holds %d", n, res.Metrics().Len())
	}
}

// TestEventsDocumentRoundTrip streams events through a JSONLTracer and
// strict-decodes the whole document, checking the header schema and
// that every line carries a documented type.
func TestEventsDocumentRoundTrip(t *testing.T) {
	_, docEvents := parseCatalogs(t)
	var buf bytes.Buffer
	tr := metrics.NewJSONLTracer(&buf, metrics.RunHeader{Bench: "twolf", Policy: "sbar", Seed: 42})
	observedRun(t, "twolf", sim.PolicySpec{Kind: sim.PolicySBAR, Seed: 42}, false, tr)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() == 0 {
		t.Fatal("no events emitted")
	}

	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() {
		t.Fatal("empty document")
	}
	var hdr metrics.RunHeader
	strictLine(t, sc.Bytes(), &hdr)
	if hdr.Schema != metrics.EventsSchema {
		t.Fatalf("header schema %q, want %q", hdr.Schema, metrics.EventsSchema)
	}

	var n uint64
	for sc.Scan() {
		var ev metrics.Event
		strictLine(t, sc.Bytes(), &ev)
		if !docEvents[string(ev.Type)] {
			t.Fatalf("undocumented event type %q in stream", ev.Type)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != tr.Events() {
		t.Fatalf("decoded %d events, tracer counted %d", n, tr.Events())
	}
}

// v2Row matches one mlpcache.events/v2 record-ID table row in
// docs/OBSERVABILITY.md: a numeric ID column, then the backticked event
// type. The leading number keeps these rows out of catalogRow's reach.
var v2Row = regexp.MustCompile("^\\| ([0-9]+) \\| `([a-z][a-z0-9_.]*)` \\|")

// TestEventTypeIDsMatchDoc pins the v2 wire contract in both
// directions: every event type registered in code appears in the doc's
// record-ID table with the same ID, and every documented row resolves
// back to the same type — so an ID can be neither renumbered nor
// documented without the matching code change.
func TestEventTypeIDsMatchDoc(t *testing.T) {
	raw, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("reading contract doc: %v", err)
	}
	docIDs := map[string]byte{}
	for _, line := range strings.Split(string(raw), "\n") {
		m := v2Row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		id := 0
		for _, c := range m[1] {
			id = id*10 + int(c-'0')
		}
		if id <= 0 || id > 255 {
			t.Fatalf("doc row %q: ID out of byte range", line)
		}
		if _, dup := docIDs[m[2]]; dup {
			t.Errorf("doc lists v2 record ID for %q twice", m[2])
		}
		docIDs[m[2]] = byte(id)
	}
	if len(docIDs) == 0 {
		t.Fatal("no v2 record-ID rows parsed — table format changed?")
	}

	for _, ty := range metrics.AllEventTypes() {
		id, ok := metrics.EventTypeID(ty)
		if !ok {
			t.Errorf("event type %q has no v2 record ID registered", ty)
			continue
		}
		docID, ok := docIDs[string(ty)]
		if !ok {
			t.Errorf("event type %q (ID %d) missing from the doc's v2 record-ID table", ty, id)
			continue
		}
		if docID != id {
			t.Errorf("event type %q: doc says ID %d, code says %d", ty, docID, id)
		}
		back, ok := metrics.EventTypeByID(id)
		if !ok || back != ty {
			t.Errorf("EventTypeByID(%d) = %q, %v; want %q", id, back, ok, ty)
		}
	}
	for name, id := range docIDs {
		ty, ok := metrics.EventTypeByID(id)
		if !ok {
			t.Errorf("documented v2 record ID %d (%q) not registered in code", id, name)
			continue
		}
		if string(ty) != name {
			t.Errorf("v2 record ID %d: doc names %q, code names %q", id, name, ty)
		}
	}
	if len(docIDs) != len(metrics.AllEventTypes()) {
		t.Errorf("doc's v2 table has %d rows, code registers %d event types",
			len(docIDs), len(metrics.AllEventTypes()))
	}
}
