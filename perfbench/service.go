package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mlpcache/internal/metrics"
	"mlpcache/internal/service"
	"mlpcache/internal/sim"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// The service mix, per round of roundJobs jobs: fresh metrics jobs
// (compute path), exact repeats of jobs from two rounds back (result
// cache path) and events/v2 jobs (never cached; telemetry encode path),
// shuffled. The first two rounds have nothing to repeat and run fresh
// jobs in those slots. Repeats are kept to one job in ten: a compute
// job's latency depends on whether the other worker is computing too,
// and with more sub-millisecond hits the median job would fall in the
// sparse gap between those two cases, where it moves with host noise.
var serviceBenches = []string{"mcf", "parser", "equake", "apsi"}

const (
	serviceBudget = 100_000
	roundJobs     = 10
	roundFresh    = 6
	roundV2       = 3
	// maxRounds bounds the pre-generated job sequence; a run stops early
	// (and says so) if its clients ever exhaust it.
	maxRounds = 1000
)

// Job kinds.
const (
	kindFresh = "fresh"
	kindHit   = "hit"
	kindV2    = "v2"
)

type svcJob struct {
	kind  string
	round int
	job   service.Job
}

// rng is a splitmix64 stream for the job mix.
type rng struct{ s uint64 }

func (g *rng) next() uint64 { g.s = derive(g.s, 1); return g.s }

func (g *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(g.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// serviceJobs generates the job sequence from the seed.
func serviceJobs(seed uint64, rounds int) []svcJob {
	g := &rng{s: derive(seed, 4)}
	policies := []string{"lru", "lin", "sbar"}
	var out []svcJob
	var fresh [][]service.Job // per round
	for rd := 0; rd < rounds; rd++ {
		jobSeed := derive(seed, 4, uint64(rd)) | 1 // never 0: the service maps seed 0 to 42
		pairs := g.perm(len(serviceBenches) * len(policies))
		nFresh := roundFresh
		if rd < 2 {
			nFresh = roundJobs - roundV2
		}
		var round []svcJob
		var mine []service.Job
		for i, p := range pairs[:nFresh+roundV2] {
			j := service.Job{Bench: serviceBenches[p/len(policies)], Policy: policies[p%len(policies)],
				Instructions: serviceBudget, Seed: jobSeed}
			kind := kindFresh
			if i >= nFresh {
				kind, j.Telemetry = kindV2, service.TelemetryEventsV2
			} else {
				mine = append(mine, j)
			}
			round = append(round, svcJob{kind: kind, round: rd, job: j})
		}
		if rd >= 2 {
			old := fresh[rd-2]
			for _, k := range g.perm(len(old))[:roundJobs-roundFresh-roundV2] {
				round = append(round, svcJob{kind: kindHit, round: rd, job: old[k]})
			}
		}
		fresh = append(fresh, mine)
		for _, k := range g.perm(len(round)) {
			out = append(out, round[k])
		}
	}
	return out
}

// daemon is a sweep service behind its HTTP handler on a loopback port.
type daemon struct {
	srv    *service.Server
	http   *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startDaemon(workers int) (*daemon, error) {
	srv, err := service.New(service.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + l.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: workers, DisableCompression: true,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		// Serve returns ErrServerClosed after stop; nothing else reaches here.
		_ = d.http.Serve(l)
	}()
	resp, err := d.client.Get(d.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop closes the listener and connections, waits for the serve loop,
// then stops the worker pool.
func (d *daemon) stop() {
	d.http.Close()
	<-d.done
	d.client.CloseIdleConnections()
	d.srv.Close()
}

// reply is one job's client-side outcome.
type reply struct {
	dur      time.Duration
	start    time.Time
	end      time.Time
	status   int
	sum      [32]byte
	complete bool
}

// post submits one job and waits for its reply.
func (d *daemon) post(j service.Job) (reply, error) {
	body, err := json.Marshal(j)
	if err != nil {
		return reply{}, err
	}
	rep := reply{start: time.Now()}
	resp, err := d.client.Post(d.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.end = time.Now()
	rep.dur = rep.end.Sub(rep.start)
	rep.status = resp.StatusCode
	rep.sum = sha256.Sum256(data)
	rep.complete = true
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("job %s/%s: HTTP %d: %s", j.Bench, j.Policy, resp.StatusCode, bytes.TrimSpace(data))
	}
	return rep, nil
}

// drive runs a closed loop of clients over jobs[0:limit) until the
// deadline (zero: until limit). Each client submits its next job only
// after the previous reply. It returns the replies by job index and how
// many jobs were taken.
func drive(r *run, d *daemon, jobs []svcJob, clients, limit int, until time.Time,
	wrap func(i int, f func())) ([]reply, int) {
	replies := make([]reply, limit)
	errs := make([]error, limit)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !until.IsZero() && time.Now().After(until) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				j := jobs[i].job
				j.Client = fmt.Sprintf("client-%d", c)
				call := func() { replies[i], errs[i] = d.post(j) }
				if wrap != nil {
					wrap(i, call)
				} else {
					call()
				}
			}
		}()
	}
	wg.Wait()
	taken := min(int(next.Load()), limit)
	for i := 0; i < taken; i++ {
		r.op(errs[i])
	}
	return replies, taken
}

// direct runs a job through the library without the service and returns
// the body the service must have answered with, plus the Result. With
// timed set, the stream is first drawn into buf (reused) and each step is
// wrapped by timed.
func direct(j service.Job, timed func(layer string, f func()), buf []trace.Instr) ([]byte, sim.Result, error) {
	w, ok := workload.ByName(j.Bench)
	if !ok {
		return nil, sim.Result{}, fmt.Errorf("unknown benchmark %q", j.Bench)
	}
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = j.Instructions
	cfg.Policy = sim.PolicySpec{Kind: sim.PolicyKind(j.Policy), Seed: j.Seed}
	var out bytes.Buffer
	var tracer metrics.FileTracer
	if j.Telemetry == service.TelemetryEventsV2 {
		t, err := metrics.NewFileTracer(&out, "v2", metrics.RunHeader{Bench: j.Bench, Policy: cfg.Policy.String(), Seed: j.Seed})
		if err != nil {
			return nil, sim.Result{}, err
		}
		tracer, cfg.Trace = t, t
	}
	var src trace.Source = w.Build(j.Seed)
	if timed != nil {
		var slice []trace.Instr
		timed("workload", func() { slice = materialise(src, j.Instructions, buf) })
		src = trace.NewSliceSource(slice)
	}
	var res sim.Result
	var err error
	layer := "sim"
	if tracer != nil {
		layer = "sim.v2"
	}
	run := func() { res, err = sim.Run(cfg, src) }
	if timed != nil {
		timed(layer, run)
	} else {
		run()
	}
	if err != nil {
		return nil, res, err
	}
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			return nil, res, err
		}
		return out.Bytes(), res, nil
	}
	if err := res.Metrics().WriteJSONL(&out, res.Header(j.Bench, j.Seed)); err != nil {
		return nil, res, err
	}
	return out.Bytes(), res, nil
}

// checkBodies compares every completed reply with a direct library run
// of the same job, byte for byte (by SHA-256). Distinct jobs run once,
// on nproc goroutines when untraced and in sequence under spans when
// traced. It returns the direct Results by job index (computed jobs
// only) and the summed direct run times.
func checkBodies(r *run, jobs []svcJob, replies []reply, taken int) (map[int]sim.Result, time.Duration) {
	type want struct {
		first int
		sum   [32]byte
		res   sim.Result
		err   error
		dur   time.Duration
	}
	byKey := map[string]*want{}
	var order []string
	for i := 0; i < taken; i++ {
		k := jobs[i].job.Key() + "|" + jobs[i].job.Telemetry
		if _, ok := byKey[k]; !ok {
			byKey[k] = &want{first: i}
			order = append(order, k)
		}
	}
	runOne := func(w *want, timed func(string, func()), buf []trace.Instr) {
		s := time.Now()
		body, res, err := direct(jobs[w.first].job, timed, buf)
		w.dur = time.Since(s)
		w.sum, w.res, w.err = sha256.Sum256(body), res, err
	}
	if r.traced {
		buf := make([]trace.Instr, 0, serviceBudget)
		for n, k := range order {
			runOne(byKey[k], func(layer string, f func()) { r.spans.do(layer, 0, n, f) }, buf)
		}
	} else {
		parallel(r.nproc, len(order), func(n int) { runOne(byKey[order[n]], nil, nil) })
	}
	results := map[int]sim.Result{}
	var busy time.Duration
	for _, k := range order {
		w := byKey[k]
		r.op(w.err)
		busy += w.dur
		if jobs[w.first].kind != kindHit {
			results[w.first] = w.res
		}
	}
	for i := 0; i < taken; i++ {
		if !replies[i].complete || replies[i].status != http.StatusOK {
			continue
		}
		w := byKey[jobs[i].job.Key()+"|"+jobs[i].job.Telemetry]
		r.check(replies[i].sum == w.sum, "service job %d (%s %s/%s seed %d): body differs from a direct library run",
			i, jobs[i].kind, jobs[i].job.Bench, jobs[i].job.Policy, jobs[i].job.Seed)
	}
	return results, busy
}

// checkCache checks that exactly the repeats were served from the cache.
func checkCache(r *run, srv *service.Server, jobs []svcJob, taken int) {
	var fresh, hits uint64
	for _, j := range jobs[:taken] {
		switch j.kind {
		case kindFresh:
			fresh++
		case kindHit:
			hits++
		}
	}
	c := srv.Snapshot()
	r.check(c.CacheHits == hits && c.CacheMisses == fresh,
		"service cache: %d hits / %d misses, the mix has %d repeats / %d fresh", c.CacheHits, c.CacheMisses, hits, fresh)
	r.check(c.RejectedQueue+c.RejectedClient+c.RejectedDraining == 0, "service rejected jobs: %+v", c)
}

// latencies collects reply latencies in ms, optionally of one kind.
func latencies(jobs []svcJob, replies []reply, taken int, kind string) []float64 {
	var out []float64
	for i := 0; i < taken; i++ {
		if replies[i].complete && (kind == "" || jobs[i].kind == kind) {
			out = append(out, float64(replies[i].dur)/1e6)
		}
	}
	return out
}

// roundWalls returns, per completed round, the span from its first job's
// submission to its last reply.
func roundWalls(jobs []svcJob, replies []reply, taken int) []float64 {
	type span struct{ start, end time.Time }
	rounds := map[int]*span{}
	count := map[int]int{}
	for i := 0; i < taken; i++ {
		if !replies[i].complete {
			continue
		}
		rd := jobs[i].round
		s, ok := rounds[rd]
		if !ok {
			s = &span{start: replies[i].start, end: replies[i].end}
			rounds[rd] = s
		}
		if replies[i].start.Before(s.start) {
			s.start = replies[i].start
		}
		if replies[i].end.After(s.end) {
			s.end = replies[i].end
		}
		count[rd]++
	}
	var out []float64
	for rd, s := range rounds {
		if count[rd] == roundJobs {
			out = append(out, s.end.Sub(s.start).Seconds())
		}
	}
	return out
}

// computedInstr is the simulated instruction count the server ran for
// the taken jobs (repeats are served from the cache).
func computedInstr(jobs []svcJob, taken int) uint64 {
	var n uint64
	for _, j := range jobs[:taken] {
		if j.kind != kindHit {
			n += j.job.Instructions
		}
	}
	return n
}

func runService(r *run) error {
	var d *daemon
	setupS, err := timeSetup(func() (func(), error) {
		var err error
		d, err = startDaemon(r.nproc)
		if err != nil {
			return nil, err
		}
		return d.stop, nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setupS)
	jobs := serviceJobs(r.seed, maxRounds)
	fmt.Printf("service: %d clients (closed loop), %d workers, rounds of %d jobs: %d fresh, %d repeats, %d events/v2\n",
		r.nproc, r.nproc, roundJobs, roundFresh, roundJobs-roundFresh-roundV2, roundV2)

	share := 1.0
	if r.traced {
		share = untracedShare
	}
	start := time.Now()
	replies, taken := drive(r, d, jobs, r.nproc, len(jobs), r.deadline(share), nil)
	elapsed := time.Since(start)
	if taken == len(jobs) {
		fmt.Println("service: the clients exhausted the generated job sequence before the deadline")
	}
	mem := peakRSSMB()
	checkCache(r, d.srv, jobs, taken)
	counters := d.srv.Snapshot()
	d.stop()

	var dg digest
	for i := 0; i < min(taken, 2*roundJobs); i++ {
		dg.addBytes(replies[i].sum[:])
	}

	if !r.traced {
		lat := latencies(jobs, replies, taken, "")
		r.set("mem_peak_mb", "MB", mem)
		r.set("instr_per_s", "instr/s", float64(computedInstr(jobs, taken))/elapsed.Seconds())
		r.set("wall_s", "s", median(roundWalls(jobs, replies, taken)))
		r.set("job_p50_ms", "ms", median(lat))
		r.set("job_p90_ms", "ms", quantile(lat, 0.9))
		r.set("jobs_per_s", "1/s", float64(len(lat))/elapsed.Seconds())
		fmt.Printf("samples: %d jobs (p90 has %d jobs beyond it)\n", len(lat), len(lat)-int(0.9*float64(len(lat)))-1)
		checkBodies(r, jobs, replies, taken)
		fmt.Printf("digest: %s (bodies of the first two rounds)\n", dg.String())
		accuracy(r)
		return nil
	}

	// Traced replay of the same jobs on a fresh daemon (its cache starts
	// empty again), one span per job, then the direct library runs.
	d2, err := startDaemon(r.nproc)
	if err != nil {
		return err
	}
	start = time.Now()
	replies2, taken2 := drive(r, d2, jobs, r.nproc, taken, time.Time{}, func(i int, f func()) {
		r.spans.do("service."+jobs[i].kind, 0, i, f)
	})
	traced := time.Since(start)
	checkCache(r, d2.srv, jobs, taken2)
	d2.stop()
	for i := 0; i < taken2; i++ {
		r.check(replies2[i].sum == replies[i].sum, "service job %d: traced body differs from the plain run", i)
	}
	results, busy := checkBodies(r, jobs, replies2, taken2)

	var instr uint64
	var agg simAgg
	var keys []string
	for i, res := range results {
		if jobs[i].kind == kindFresh {
			instr += res.Instructions
		}
		if jobs[i].round == 0 {
			agg.add(res)
		}
		keys = append(keys, fmt.Sprintf("%s/%d", jobs[i].job.Bench, jobs[i].job.Seed))
	}
	gen := float64(r.spans.self("workload")) / float64(computedInstr(jobs, taken2))
	engine := float64(r.spans.self("sim")) / float64(instr)
	plain := float64(elapsed) * float64(r.nproc) / float64(computedInstr(jobs, taken))
	r.set("workload.gen_ns_per_instr", "ns/instr", gen)
	r.set("sim.engine_ns_per_instr", "ns/instr", engine)
	r.set("sim.untraced_ns_per_instr", "ns/instr", plain)
	r.set("sim.unattributed_share", "ratio", (plain-gen-engine)/plain)
	r.set("trace.overhead_s", "s", (traced - elapsed).Seconds())
	reportStreams(r, keys)
	r.set("experiments.fresh_runs", "runs", float64(len(results))/float64(jobs[taken2-1].round+1))
	r.set("experiments.worker_util", "ratio", busy.Seconds()/(traced.Seconds()*float64(r.nproc)))
	reportService(r, counters, map[string][]time.Duration{
		kindHit:   r.spans.durations("service." + kindHit),
		kindFresh: r.spans.durations("service." + kindFresh),
		kindV2:    r.spans.durations("service." + kindV2),
	})
	agg.report(r)
	fmt.Printf("digest: %s (bodies of the first two rounds)\n", dg.String())
	probeLayers(r, probeInput{benches: serviceBenches, seed: r.seed, budget: serviceBudget}, probeMulti)
	return nil
}

// reportService sets the service.* per-layer metrics.
func reportService(r *run, c service.Counters, byKind map[string][]time.Duration) {
	for _, k := range []string{kindHit, kindFresh, kindV2} {
		var ms []float64
		for _, d := range byKind[k] {
			ms = append(ms, float64(d)/1e6)
		}
		r.set("service."+k+"_p50_ms", "ms", median(ms))
	}
	r.set("service.cache_hit_ratio", "ratio", ratio(c.CacheHits, c.CacheHits+c.CacheMisses))
	r.set("service.retried", "attempts", float64(c.Retried))
	r.set("service.rejected", "jobs", float64(c.RejectedQueue+c.RejectedClient+c.RejectedDraining))
}

// probeServiceLayer measures the service layer on another workload's
// inputs: one daemon, fresh jobs, their repeats and events/v2 jobs.
func probeServiceLayer(r *run, in probeInput) error {
	d, err := startDaemon(r.nproc)
	if err != nil {
		return err
	}
	defer d.stop()
	byKind := map[string][]time.Duration{}
	var fresh []service.Job
	for i, b := range in.benches {
		fresh = append(fresh, service.Job{Bench: b, Policy: "lru", Instructions: probeServiceBudget,
			Seed: derive(in.seed, 5, uint64(i)) | 1})
	}
	submit := func(kind string, j service.Job) {
		var rep reply
		var err error
		r.spans.do("service."+kind, 0, 0, func() { rep, err = d.post(j) })
		r.op(err)
		byKind[kind] = append(byKind[kind], rep.dur)
	}
	for _, j := range fresh {
		submit(kindFresh, j)
	}
	for _, j := range fresh {
		submit(kindHit, j)
	}
	for _, j := range fresh[:2] {
		j.Policy, j.Telemetry = "lin", service.TelemetryEventsV2
		submit(kindV2, j)
	}
	c := d.srv.Snapshot()
	r.check(c.CacheHits == uint64(len(fresh)), "service probe: %d cache hits, want %d", c.CacheHits, len(fresh))
	reportService(r, c, byKind)
	return nil
}
