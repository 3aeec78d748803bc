package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// serve-mix drives casad in-process on a loopback listener with an
// open-loop Poisson schedule at one fixed rate. Each request is timed
// from when it was due, so a stall also charges the requests queued
// behind it.
const (
	// serveRate is the schedule's mean arrival rate (events/s). With
	// mixBlock's 16 miss events in 500, misses arrive at 13/s and keep
	// about one of two cores busy: on a two-core host the process used
	// 0.87 to 1.04 cores over the window in twenty runs (getrusage,
	// printed by every run), casad's misses 0.79 to 1.07 cores of it. Two choices keep the
	// percentiles steady. Hits at 387/s make misses 3% of requests, so
	// p99_ms sits near the misses' 67th percentile rather than in their
	// queueing tail: at 200 events/s, with misses 6% of requests, it
	// moved by a quarter when the host slowed by a tenth. And 16 miss
	// events rather than 20 leave hit_p50_ms well below the knee where
	// hits start to wait behind two solves (a quarter of hits wait at
	// 16; at 20 over a third did, and hit_p50_ms moved by a fifth).
	serveRate = 400.0
	// serveLimit is the latency limit a correct answer must meet to
	// count toward goodput.
	serveLimit = time.Second
	// maxLag is how late the generator may dispatch a request; a run
	// that falls further behind its schedule is invalid.
	maxLag = time.Second
	// solveLane caps the concurrent requests (and connections) that may
	// solve, readLane those re-reading the popular set (see openLoop).
	solveLane = maxWorkers
	readLane  = 8
	// popular is the size of the re-requested (hit) set.
	popular = 8
	// uploads is the number of distinct custom programs in the mix.
	uploads = 3
	// bootReps is how many times set-up boots casad; setup_s is the
	// median. A boot takes under a millisecond, so one is cheap and a
	// few are noisy.
	bootReps = 101
	// replayLen is how many scheduled requests a traced replay sends.
	replayLen = 1000
	// requestSeed fixes the request sequence. The run's seed draws the
	// arrival times: runs differ in when requests arrive and so in how
	// misses overlap, not in what they ask or in which order. Which
	// requests precede a miss decides its warm donors, its coalescing
	// and whether it pays a first profile, and varying that as well
	// spread miss latencies by a third between seeds.
	requestSeed = 1
)

// mixBlock is the class make-up of every 500 schedule events (484 hits,
// 96% of the 502 requests); each block is shuffled with the seed, so
// every run carries the same proportions. A duplicate event sends a
// pair.
var mixBlock = []struct {
	class string
	n     int
}{
	{"hit", 484},
	{"cold", 5},
	{"warm", 3},
	{"dup", 2},
	{"upload", 3},
	{"other", 3},
}

// sreq is one scheduled request.
type sreq struct {
	class string
	req   server.Request
	body  []byte
	key   string
	due   time.Duration
}

// hier is a hierarchy of the request universe.
type hier = server.Hierarchy

// schedule is a seeded request stream: the warm-up requests, then the
// measured ones with their due times.
type schedule struct {
	warmup []sreq
	reqs   []sreq
}

// mixGen draws requests from the seeded universe.
type mixGen struct {
	rng      *rand.Rand
	universe []server.Request // unissued named CASA requests, shuffled
	issued   map[string]bool
	solved   []server.Request // fresh named CASA requests issued so far
	popular  []server.Request
	programs []string
	// uploads and others count the hierarchies drawn for those classes.
	uploads, others int
	// block holds the current block's remaining event classes.
	block []string
}

var (
	cacheSizes = []int{256, 512, 1024, 2048, 4096}
	spms       = []int{128, 256, 512, 1024}
)

func hierarchies() []hier {
	var out []hier
	for _, c := range cacheSizes {
		for _, a := range []int{1, 2, 4} {
			for _, l := range []int{16, 32} {
				for _, s := range spms {
					out = append(out, hier{CacheBytes: c, LineBytes: l, Assoc: a, SPMBytes: s})
				}
			}
		}
	}
	return out
}

func reqKey(r server.Request) string {
	b, _ := json.Marshal(r) // a Request always marshals
	return string(b)
}

func newMixGen(seed int64) (*mixGen, error) {
	g := &mixGen{rng: rand.New(rand.NewSource(seed)), issued: make(map[string]bool)}
	// The universe is stratified by workload and cache size, the
	// parameters that set most of a solve's cost: it is a sequence of
	// rounds holding one request per stratum in seeded order. The rest
	// of a stratum's hierarchy turns with the round (a Latin square), so
	// every round holds the same requests whatever the seed, and runs
	// differ in order and timing, not in what they ask. The popular set
	// comes from the last round, so it does not take from the fresh
	// stream.
	strata := make(map[[2]int][]server.Request)
	var keys [][2]int
	for wi, w := range workload.Names() {
		for _, h := range hierarchies() {
			k := [2]int{wi, h.CacheBytes}
			if _, ok := strata[k]; !ok {
				keys = append(keys, k)
			}
			strata[k] = append(strata[k], server.Request{Workload: w, Hierarchy: h, Allocator: "casa"})
		}
	}
	rounds := len(strata[keys[0]])
	for round := 0; round < rounds; round++ {
		var rs []server.Request
		for _, i := range g.rng.Perm(len(keys)) {
			rs = append(rs, strata[keys[i]][(i+round)%rounds])
		}
		if round == rounds-1 {
			g.popular, rs = rs[:popular], rs[popular:]
			for _, r := range g.popular {
				g.take(r)
			}
		}
		g.universe = append(g.universe, rs...)
	}
	for i := 0; i < uploads; i++ {
		p, err := workload.Random(workload.RandomSpec{
			Seed: uint64(i + 1), Funcs: 6, SegmentsPerFunc: 6, MaxTrips: 24,
		})
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		if err := asm.Write(&b, p); err != nil {
			return nil, err
		}
		g.programs = append(g.programs, b.String())
	}
	return g, nil
}

// fresh takes the next unissued universe request.
func (g *mixGen) fresh() (server.Request, bool) {
	for len(g.universe) > 0 {
		r := g.universe[0]
		g.universe = g.universe[1:]
		if g.take(r) {
			g.solved = append(g.solved, r)
			return r, true
		}
	}
	return server.Request{}, false
}

// take marks r issued; false if it already was.
func (g *mixGen) take(r server.Request) bool {
	k := reqKey(r)
	if g.issued[k] {
		return false
	}
	g.issued[k] = true
	return true
}

// neighbour changes one hierarchy parameter of the latest fresh
// request: the scratchpad size, else the cache size, trying the other
// values in a fixed order until one is unissued.
func (g *mixGen) neighbour() (server.Request, bool) {
	if len(g.solved) == 0 {
		return server.Request{}, false
	}
	base := g.solved[len(g.solved)-1]
	for _, spm := range spms {
		r := base
		r.Hierarchy.SPMBytes = spm
		if g.take(r) {
			return r, true
		}
	}
	for _, c := range cacheSizes {
		r := base
		r.Hierarchy.CacheBytes = c
		if g.take(r) {
			return r, true
		}
	}
	return server.Request{}, false
}

// unissued draws requests from make until one is new.
func (g *mixGen) unissued(make func() server.Request) (server.Request, bool) {
	for try := 0; try < 16; try++ {
		if r := make(); g.take(r) {
			return r, true
		}
	}
	return server.Request{}, false
}

// cycledHier returns the n-th hierarchy of a fixed stride through the
// grid, so uploads and other allocators sweep it evenly.
func cycledHier(n int) hier {
	hs := hierarchies()
	return hs[n*37%len(hs)]
}

// next draws one schedule event's requests.
func (g *mixGen) next() (string, []server.Request) {
	if len(g.block) == 0 {
		for _, c := range mixBlock {
			for i := 0; i < c.n; i++ {
				g.block = append(g.block, c.class)
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	class := g.block[0]
	g.block = g.block[1:]
	var r server.Request
	ok := false
	switch class {
	case "cold":
		r, ok = g.fresh()
	case "warm":
		r, ok = g.neighbour()
	case "dup":
		if r, ok = g.fresh(); ok {
			return class, []server.Request{r, r}
		}
	case "upload":
		// Programs take turns, so every seed uploads each as often.
		prog := g.programs[g.uploads%len(g.programs)]
		r, ok = g.unissued(func() server.Request {
			g.uploads++
			return server.Request{Program: prog, Hierarchy: cycledHier(g.uploads), Allocator: "casa"}
		})
	case "other":
		// Workloads and allocators take turns too.
		names := workload.Names()
		w := names[g.others%len(names)]
		a := []string{"steinke", "loopcache", "cache-only"}[g.others/len(names)%3]
		r, ok = g.unissued(func() server.Request {
			g.others++
			return server.Request{Workload: w, Hierarchy: cycledHier(g.others), Allocator: a}
		})
	}
	if !ok {
		class, r = "hit", g.popular[g.rng.Intn(len(g.popular))]
	}
	return class, []server.Request{r}
}

func makeReq(class string, r server.Request, due time.Duration) sreq {
	body, _ := json.Marshal(r) // a Request always marshals
	return sreq{class: class, req: r, body: body, key: string(body), due: due}
}

// newSchedule builds the seeded stream for a window of d: warm-up
// (the popular set, and one cache-only request per workload so every
// bundled program is profiled), then Poisson arrivals at serveRate.
func newSchedule(seed int64, d time.Duration) (*schedule, error) {
	g, err := newMixGen(requestSeed)
	if err != nil {
		return nil, err
	}
	arrivals := rand.New(rand.NewSource(seed))
	s := &schedule{}
	for _, r := range g.popular {
		s.warmup = append(s.warmup, makeReq("warmup", r, 0))
	}
	for _, w := range workload.Names() {
		r := server.Request{Workload: w, Hierarchy: hier{CacheBytes: 8192, LineBytes: 16, Assoc: 1, SPMBytes: 256}, Allocator: "cache-only"}
		g.take(r)
		s.warmup = append(s.warmup, makeReq("warmup", r, 0))
	}
	var t time.Duration
	for {
		t += time.Duration(arrivals.ExpFloat64() / serveRate * float64(time.Second))
		if t >= d {
			break
		}
		class, rs := g.next()
		for _, r := range rs {
			s.reqs = append(s.reqs, makeReq(class, r, t))
		}
	}
	return s, nil
}

// sres is one request's outcome.
type sres struct {
	status  int
	resp    server.Response
	latency float64 // ms from due to response read
	lag     float64 // ms from due to dispatch
	err     error
}

type target struct {
	srv    *server.Server
	done   chan error
	url    string
	client *http.Client
}

// bootServer starts casad on a loopback listener and waits until
// /healthz answers; it returns the boot time.
func bootServer() (*target, float64, error) {
	start := time.Now()
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	t := &target{
		srv:  srv,
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: solveLane + readLane, MaxIdleConnsPerHost: solveLane + readLane},
		},
	}
	go func() { t.done <- srv.Serve(ln) }()
	for {
		resp, err := t.client.Get(t.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return t, elapsed(start), nil
			}
		}
		if time.Since(start) > 10*time.Second {
			_ = t.stop() // the boot error below is what matters
			return nil, 0, fmt.Errorf("casad not ready after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server and waits for Serve to return.
func (t *target) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	t.client.CloseIdleConnections()
	return errors.Join(err, <-t.done)
}

// send posts one request and reads its answer; latency is measured
// from due.
func (t *target) send(r sreq, due time.Time) sres {
	var out sres
	resp, err := t.client.Post(t.url+"/v1/allocate", "application/json", bytes.NewReader(r.body))
	if err != nil {
		out.err = err
	} else {
		out.status = resp.StatusCode
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			out.err = rerr
		} else if resp.StatusCode == http.StatusOK {
			out.err = json.Unmarshal(body, &out.resp)
		}
	}
	out.latency = ms(time.Since(due).Seconds())
	return out
}

// openLoop sends reqs at their due times from start. One generator
// hands each request, when due, to one of two lanes: requests that may
// solve go to solveLane senders, re-reads of the popular set to
// readLane senders. At most two solves then run at once, well inside
// casad's exact tier, and a read never queues in the client behind
// solves: it competes with them only for the cores. A request waiting
// for a free sender keeps its due time, so that wait counts in its
// latency; its lag is only how late the generator handed it over.
func (t *target) openLoop(reqs []sreq) []sres {
	out := make([]sres, len(reqs))
	lags := make([]float64, len(reqs))
	reads := make(chan int, len(reqs))
	solves := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for _, lane := range []struct {
		reqs    chan int
		senders int
	}{{reads, readLane}, {solves, solveLane}} {
		for w := 0; w < lane.senders; w++ {
			wg.Add(1)
			go func(lane chan int) {
				defer wg.Done()
				for i := range lane {
					out[i] = t.send(reqs[i], start.Add(reqs[i].due))
				}
			}(lane.reqs)
		}
	}
	for i, r := range reqs {
		due := start.Add(r.due)
		time.Sleep(time.Until(due))
		lags[i] = ms(time.Since(due).Seconds())
		if r.class == "hit" {
			reads <- i
		} else {
			solves <- i
		}
	}
	close(reads)
	close(solves)
	wg.Wait()
	for i := range out {
		out[i].lag = lags[i]
	}
	return out
}

// serial sends reqs one at a time, except that each duplicate pair is
// sent concurrently so the second joins the first's solve.
func (t *target) serial(reqs []sreq) []sres {
	out := make([]sres, len(reqs))
	for i := 0; i < len(reqs); i++ {
		if reqs[i].class == "dup" && i+1 < len(reqs) && reqs[i+1].key == reqs[i].key {
			var wg sync.WaitGroup
			for j := i; j <= i+1; j++ {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					out[j] = t.send(reqs[j], time.Now())
				}(j)
			}
			wg.Wait()
			i++
			continue
		}
		out[i] = t.send(reqs[i], time.Now())
	}
	return out
}

func runServeMix(cfg runConfig) (*result, error) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	sched, err := newSchedule(cfg.seed, window)
	if err != nil {
		return nil, err
	}
	progs, err := sharedPrograms()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return serveTraced(cfg, sched, progs)
	}

	// Set-up: boot until ready, bootReps times; the last boot serves.
	var boots []float64
	var t *target
	for i := 0; i < bootReps; i++ {
		if t != nil {
			if err := t.stop(); err != nil {
				return nil, err
			}
		}
		var d float64
		runtime.GC() // every boot starts from the same heap state
		if t, d, err = bootServer(); err != nil {
			return nil, err
		}
		boots = append(boots, d)
	}
	res := &result{}
	refs := newRefs()
	for _, r := range sched.warmup {
		check(r, t.send(r, time.Now()), refs, res)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	out := t.openLoop(sched.reqs)
	wall := elapsed(start)
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if err := t.stop(); err != nil {
		return nil, err
	}
	refs.prefill(sched.reqs)

	var all, hit, miss, lags []float64
	good, missBusy := 0, 0.0
	for i, r := range sched.reqs {
		o := out[i]
		lags = append(lags, o.lag)
		if !check(r, o, refs, res) {
			continue
		}
		all = append(all, o.latency)
		switch {
		case o.resp.Cached:
			hit = append(hit, o.latency)
		case !o.resp.Coalesced:
			miss = append(miss, o.latency)
			missBusy += o.resp.ElapsedMS
		}
		if o.latency <= ms(serveLimit.Seconds()) {
			good++
		}
	}
	if lag := quantile(lags, 1); lag > ms(maxLag.Seconds()) {
		return nil, fmt.Errorf("serve-mix: the generator fell %.0f ms behind its schedule; the run is invalid", lag)
	}
	if len(all) == 0 || len(hit) == 0 || len(miss) == 0 {
		return nil, fmt.Errorf("serve-mix: no successful hits or misses (%d answers)", len(all))
	}
	res.metrics = []metric{
		{"wall_s", wall, "s", 1},
		setupMetric(boots),
		{"alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 * 1000 / float64(len(sched.reqs)), "MB", len(sched.reqs)},
		percentileMetric("p50_ms", all, 0.50),
		percentileMetric("p99_ms", all, 0.99),
		percentileMetric("hit_p50_ms", hit, 0.50),
		percentileMetric("hit_p99_ms", hit, 0.99),
		percentileMetric("miss_p50_ms", miss, 0.50),
		percentileMetric("miss_p90_ms", miss, 0.90),
		{"goodput_rps", float64(good) / window.Seconds(), "1/s", len(sched.reqs)},
	}
	fmt.Fprintf(os.Stderr, "serve-mix: %d requests (%d hits, %d misses), generator lag p99 %.3f ms, max %.3f ms\n",
		len(sched.reqs), len(hit), len(miss), quantile(lags, 0.99), quantile(lags, 1))
	fmt.Fprintf(os.Stderr, "serve-mix: process CPU %.3f cores of %d over the window; misses in casad %.3f cores (server time)\n",
		cpu/wall, runtime.NumCPU(), missBusy/1e3/wall)
	return res, nil
}

// serveTraced replays the schedule's first replayLen requests serially
// on a fresh server, after forgetting the bundled programs' memos, as
// often as the window allows (at least twice). Serial order makes every
// count repeat exactly, except which of a duplicate pair's requests
// coalesces and which hits the cache, which is left to timing.
func serveTraced(cfg runConfig, sched *schedule, progs []*ir.Program) (*result, error) {
	reqs := sched.reqs
	if len(reqs) > replayLen {
		reqs = reqs[:replayLen]
	}
	res := &result{}
	refs := newRefs()
	sent := append(append([]sreq(nil), sched.warmup...), reqs...)
	refs.prefill(sent)
	var first map[string]float64
	var queue, compute, walls []float64
	var vals map[string]float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		for _, p := range progs {
			sim.Forget(p)
		}
		t, _, err := bootServer()
		if err != nil {
			return nil, err
		}
		before := obs.Default.Snapshot()
		start := time.Now()
		out := t.serial(sent)
		walls = append(walls, elapsed(start))
		delta := obs.Default.Delta(before)
		if err := t.stop(); err != nil {
			return nil, err
		}
		var q, c float64
		for i, r := range sent {
			o := out[i]
			if !check(r, o, refs, res) {
				continue
			}
			q += o.latency - o.resp.ElapsedMS
			if !o.resp.Cached && !o.resp.Coalesced {
				c += o.resp.ElapsedMS
			}
		}
		queue, compute = append(queue, q), append(compute, c)
		cs := counts(delta, nil)
		for _, name := range []string{
			"casa_server_solves_total", "casa_server_warm_solves_total", "casa_server_rejected_total",
			"casa_server_tier_bounded_total", "casa_server_tier_greedy_total",
			"casa_server_program_intern_hits_total", "casa_server_program_intern_misses_total",
		} {
			cs[name] = delta[name]
		}
		if first == nil {
			first = cs
			vals = map[string]float64{
				"server.cache_hit_ratio": ratio(delta["casa_server_cache_hits_total"],
					delta["casa_server_cache_hits_total"]+delta["casa_server_cache_misses_total"]),
				"server.coalesced": delta["casa_server_singleflight_hits_total"],
			}
		} else {
			res.attempted++
			if err := sameCounts(fmt.Sprintf("counts of replays 1 and %d", pass+1), first, cs); err != nil {
				res.failed++
				res.fail("%v", err)
			}
		}
	}
	for k, v := range first {
		if !strings.HasPrefix(k, "casa_") {
			vals[k] = v
		}
	}
	vals["ilp.warm_hit_ratio"] = ratio(first["casa_server_warm_solves_total"], first["casa_server_solves_total"])
	vals["server.solves"] = first["casa_server_solves_total"]
	vals["server.warm_solves"] = first["casa_server_warm_solves_total"]
	vals["server.rejected"] = first["casa_server_rejected_total"]
	vals["server.downgraded"] = first["casa_server_tier_bounded_total"] + first["casa_server_tier_greedy_total"]
	vals["server.intern_hit_ratio"] = ratio(first["casa_server_program_intern_hits_total"],
		first["casa_server_program_intern_hits_total"]+first["casa_server_program_intern_misses_total"])
	vals["server.queue_ms"] = median(queue)
	vals["server.compute_ms"] = median(compute)
	vals["bench.traced_wall_s"] = median(walls)
	n := map[string]int{"server.queue_ms": len(queue), "server.compute_ms": len(compute), "bench.traced_wall_s": len(walls)}
	res.metrics = layerMetrics(vals, n)
	return res, nil
}

// refs computes and memoizes the pipeline's answer per request.
type refs struct {
	mu       sync.Mutex
	programs map[string]*ir.Program
	answers  map[string]refEntry
}

type refEntry struct {
	resp *server.Response
	err  error
}

func newRefs() *refs {
	return &refs{programs: make(map[string]*ir.Program), answers: make(map[string]refEntry)}
}

// prefill computes the answers of every distinct request in reqs on
// workers() goroutines.
func (rf *refs) prefill(reqs []sreq) {
	var todo []server.Request
	seen := make(map[string]bool)
	for _, r := range reqs {
		if !seen[r.key] {
			seen[r.key] = true
			todo = append(todo, r.req)
		}
	}
	next := make(chan server.Request)
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				rf.answer(r)
			}
		}()
	}
	for _, r := range todo {
		next <- r
	}
	close(next)
	wg.Wait()
}

// answer returns the pipeline's answer for r, computing it on first use.
func (rf *refs) answer(r server.Request) (*server.Response, error) {
	k := reqKey(r)
	rf.mu.Lock()
	e, ok := rf.answers[k]
	rf.mu.Unlock()
	if !ok {
		e.resp, e.err = rf.compute(r)
		rf.mu.Lock()
		rf.answers[k] = e
		rf.mu.Unlock()
	}
	return e.resp, e.err
}

// program resolves a request's program as casad does: the shared
// bundled instance, or the parsed upload (one instance per source).
func (rf *refs) program(r server.Request) (*ir.Program, error) {
	if r.Workload != "" {
		return workload.Shared(r.Workload)
	}
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if p := rf.programs[r.Program]; p != nil {
		return p, nil
	}
	p, err := asm.ParseString(r.Program, "request")
	if err == nil {
		rf.programs[r.Program] = p
	}
	return p, err
}

// compute runs the allocation pipeline for r directly, as casad's exact
// tier does: standalone pipeline, cache-only baseline, the allocator.
func (rf *refs) compute(r server.Request) (*server.Response, error) {
	prog, err := rf.program(r)
	if err != nil {
		return nil, err
	}
	h := r.Hierarchy
	ctx := context.Background()
	p, err := experiments.PrepareProgram(ctx, prog, experiments.CacheSpec{Size: h.CacheBytes, Line: h.LineBytes, Assoc: h.Assoc}, h.SPMBytes)
	if err != nil {
		return nil, err
	}
	base, err := p.RunCacheOnly(ctx)
	if err != nil {
		return nil, err
	}
	var out *experiments.Outcome
	switch r.Allocator {
	case "casa":
		out, err = p.RunCASA(ctx)
	case "steinke":
		out, err = p.RunSteinke(ctx)
	case "loopcache":
		out, err = p.RunLoopCache(ctx)
	case "cache-only":
		out = base
	default:
		err = fmt.Errorf("allocator %q", r.Allocator)
	}
	if err != nil {
		return nil, err
	}
	return &server.Response{
		Workload: prog.Name, Allocator: out.Allocator,
		EnergyMicroJ: out.EnergyMicroJ, BaselineMicroJ: base.EnergyMicroJ,
		Cycles: out.Result.Cycles, Fetches: out.Result.Fetches, CacheMisses: out.Result.CacheMisses,
		PlacedTraces: out.PlacedTraces, UsedBytes: out.UsedBytes, SPMBytes: h.SPMBytes,
	}, nil
}

// check validates one answer: a 200, not degraded, whose energy and
// selection fields equal the pipeline's answer for the same request. It
// counts the answer as attempted, and as failed unless it is valid.
func check(r sreq, o sres, rf *refs, res *result) bool {
	res.attempted++
	if !validAnswer(r, o, rf, res) {
		res.failed++
		return false
	}
	return true
}

func validAnswer(r sreq, o sres, rf *refs, res *result) bool {
	switch {
	case o.err != nil:
		res.fail("%s request %s: %v", r.class, r.key, o.err)
		return false
	case o.status != http.StatusOK:
		res.fail("%s request %s: status %d", r.class, r.key, o.status)
		return false
	case o.resp.Degraded:
		res.fail("%s request %s: degraded (%s)", r.class, r.key, o.resp.DegradedReason)
		return false
	}
	want, err := rf.answer(r.req)
	if err != nil {
		res.fail("reference for %s: %v", r.key, err)
		return false
	}
	got := o.resp
	if got.Workload != want.Workload || got.Allocator != want.Allocator ||
		got.EnergyMicroJ != want.EnergyMicroJ || got.BaselineMicroJ != want.BaselineMicroJ ||
		got.Cycles != want.Cycles || got.Fetches != want.Fetches || got.CacheMisses != want.CacheMisses ||
		got.PlacedTraces != want.PlacedTraces || got.UsedBytes != want.UsedBytes || got.SPMBytes != want.SPMBytes ||
		math.IsNaN(got.EnergyMicroJ) {
		res.fail("%s request %s: answer %+v differs from the pipeline's %+v", r.class, r.key, got, *want)
		return false
	}
	return true
}
