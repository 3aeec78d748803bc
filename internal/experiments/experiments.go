// Package experiments assembles the full evaluation pipeline of the paper
// (Figure 3): workload → profile → trace generation → allocation (CASA,
// Steinke's knapsack, or Ross's loop-cache preloading) → layout → memory-
// hierarchy simulation → energy, and regenerates every figure and table of
// the results section.
//
// A Pipeline bundles everything derived from one (workload, cache,
// scratchpad-size) triple so the three allocators are compared on exactly
// the same traces and the same profiling run, as the paper prescribes
// ("for a fair comparison, traces are generated for both the allocation
// techniques"). A Suite memoizes Pipelines across figures.
//
// Concurrency model: every experiment cell — one (workload, cache,
// scratchpad size) point of a study — is deterministic and independent,
// so the study functions fan their grids out across a bounded worker pool
// (internal/parallel) sized by the Suite's worker setting. Shared state
// is either immutable after construction (programs, profiles, trace sets,
// conflict graphs, layouts) or guarded by singleflight memo entries (the
// Suite's pipeline table, each Pipeline's outcome and allocation memos),
// so a Suite and its Pipelines are safe for concurrent use and results
// are bit-identical to a serial run.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ilp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/loopcache"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/steinke"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Memoization effectiveness counters. Hit rates are the observability
// pay-off metric of the PR 1 memo layers: a warm second round should show
// pipeline/outcome hits near 100%.
var (
	mPipeHits    = obs.GetCounter("casa_pipeline_memo_hits_total")
	mPipeMisses  = obs.GetCounter("casa_pipeline_memo_misses_total")
	mOutHits     = obs.GetCounter("casa_outcome_memo_hits_total")
	mOutMisses   = obs.GetCounter("casa_outcome_memo_misses_total")
	mAllocHits   = obs.GetCounter("casa_alloc_memo_hits_total")
	mAllocMisses = obs.GetCounter("casa_alloc_memo_misses_total")
	// mConflictIncremental counts conflict graphs rebased onto a donor
	// cell's vertex layer instead of being built from scratch
	// (prepareProgram, with a donor chosen by the suite).
	mConflictIncremental = obs.GetCounter("casa_conflict_incremental_total")
)

// CacheSpec selects the I-cache configuration of an experiment.
type CacheSpec struct {
	// Size is the capacity in bytes.
	Size int
	// Line is the line size in bytes (the paper-wide default is 16).
	Line int
	// Assoc is the associativity (1 = direct-mapped, as in the paper).
	Assoc int
	// Policy is the replacement policy for associative configurations.
	Policy cache.Policy
}

// DefaultLine is the line size used throughout the evaluation.
const DefaultLine = 16

// LoopCacheEntries is the preload limit of the modelled loop cache; the
// paper assumes a maximum of 4 loops.
const LoopCacheEntries = 4

// DM returns a direct-mapped CacheSpec with the default line size.
func DM(size int) CacheSpec {
	return CacheSpec{Size: size, Line: DefaultLine, Assoc: 1}
}

func (c CacheSpec) cacheConfig() cache.Config {
	return cache.Config{
		SizeBytes:   c.Size,
		LineBytes:   c.Line,
		Assoc:       c.Assoc,
		Replacement: c.Policy,
	}
}

func (c CacheSpec) geometry() energy.CacheGeometry {
	return energy.CacheGeometry{SizeBytes: c.Size, LineBytes: c.Line, Assoc: c.Assoc}
}

// Pipeline is everything shared by the allocators for one configuration.
// All exported fields are immutable after Prepare; the Run* methods
// memoize their outcomes and are safe for concurrent use.
type Pipeline struct {
	// Workload is the benchmark name.
	Workload string
	// Prog is the loaded program.
	Prog *ir.Program
	// Prof is its execution profile.
	Prof *sim.Profile
	// Cache is the I-cache configuration.
	Cache CacheSpec
	// SPMSize is the scratchpad (or loop cache) capacity in bytes.
	SPMSize int
	// Set is the trace partition (traces capped at SPMSize).
	Set *trace.Set
	// Graph is the conflict graph from the cache-only profiling run.
	Graph *conflict.Graph
	// Baseline is the cache-only run (trace layout, empty scratchpad).
	Baseline *memsim.Result
	// Cost is the scratchpad-configuration cost model.
	Cost energy.CostModel
	// SolveBudget caps the CASA ILP's wall-clock time (0 = unlimited);
	// on expiry the solver degrades to its incumbent or the greedy
	// fallback instead of failing the cell.
	SolveBudget time.Duration
	// Session shares presolve reductions across this pipeline's solves
	// (set by the owning Suite; nil for standalone pipelines).
	Session *ilp.Session

	// WarmCutoff, when non-nil, seeds the CASA solve with a
	// known-feasible objective value (a cutoff, see ilp.Options.Cutoff).
	// Callers that keep their own cross-pipeline warm stores — the
	// serving daemon — fill it before the first RunCASA; pipelines owned
	// by a Suite ignore it in favor of the suite's warm planner.
	WarmCutoff *float64

	// WarmHot optionally carries a donor solve's transferable basis and
	// pseudocosts alongside WarmCutoff (ilp.Options.HotStart). Like the
	// cutoff it never changes results, only solve time; suite-owned
	// pipelines ignore it in favor of the warm planner's donor choice.
	WarmHot *ilp.HotStart

	// suite points back at the owning Suite for cross-cell warm starts;
	// nil for pipelines prepared outside a suite.
	suite *Suite

	// mu guards the memo tables below; each entry is singleflight so a
	// result is computed once even under concurrent callers.
	mu       sync.Mutex
	outcomes map[string]*outcomeEntry
	alloc    *allocEntry
}

type outcomeEntry struct {
	once sync.Once
	out  *Outcome
	err  error
}

type allocEntry struct {
	once  sync.Once
	alloc *core.Allocation
	err   error
}

// Prepare builds the pipeline for one (workload, cache, scratchpad size)
// configuration: it profiles the program, forms traces, lays them out
// without a scratchpad and runs the conflict-tracking profiling
// simulation. The context carries the optional tracing span tree
// (obs.WithTracer); each preparation stage records its own child span.
func Prepare(ctx context.Context, name string, cacheSpec CacheSpec, spmSize int) (*Pipeline, error) {
	prog, err := workload.Shared(name)
	if err != nil {
		return nil, err
	}
	return PrepareProgram(ctx, prog, cacheSpec, spmSize)
}

// PrepareProgram is Prepare for an already-constructed program (custom
// workloads, tests). The program must not be mutated afterwards: profiles
// and fetch streams are memoized process-wide per program instance.
func PrepareProgram(ctx context.Context, prog *ir.Program, cacheSpec CacheSpec, spmSize int) (*Pipeline, error) {
	return prepareProgram(ctx, prog, cacheSpec, spmSize, nil)
}

// prepareProgram is PrepareProgram with an optional conflict-graph donor:
// when donor covers the same memory objects (same trace partition — the
// suite passes a graph from a cell differing only in cache geometry),
// the new graph rebases onto its vertex layer instead of rebuilding it,
// and the rebase is counted. Edge weights always come from this cell's
// own profiling run, so the result is identical with or without a donor.
func prepareProgram(ctx context.Context, prog *ir.Program, cacheSpec CacheSpec, spmSize int, donor *conflict.Graph) (*Pipeline, error) {
	ctx, ps := obs.StartSpan(ctx, "prepare")
	defer ps.End()
	ps.SetAttr("workload", prog.Name)
	ps.SetAttr("cache_bytes", cacheSpec.Size)
	ps.SetAttr("spm_bytes", spmSize)

	_, sp := obs.StartSpan(ctx, "profile")
	prof, err := sim.CachedProfile(prog)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: profile %s: %w", prog.Name, err)
	}
	_, sp = obs.StartSpan(ctx, "trace-partition")
	set, err := trace.Build(prog, prof, trace.Options{MaxBytes: spmSize, LineBytes: cacheSpec.Line})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: traces %s: %w", prog.Name, err)
	}
	_, sp = obs.StartSpan(ctx, "layout")
	plain, err := layout.New(set, nil, layout.Options{})
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "energy-model")
	cost, err := energy.NewCostModel(energy.Config{
		Cache:    cacheSpec.geometry(),
		SPMBytes: spmSize,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "baseline-sim")
	base, err := memsim.Run(prog, plain, memsim.Config{
		Cache:          cacheSpec.cacheConfig(),
		Cost:           cost,
		TrackConflicts: true,
		KeepCache:      true,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "conflict-graph")
	fetches := make([]int64, len(set.Traces))
	for i, t := range set.Traces {
		fetches[i] = t.Fetches
	}
	var g *conflict.Graph
	if donor != nil && donor.MatchesFetches(fetches) {
		g = donor.Rebase()
		mConflictIncremental.Inc()
		sp.SetAttr("rebased", true)
	} else {
		g = conflict.New(fetches)
	}
	for k, v := range base.Conflicts {
		if err := g.AddMisses(k.Victim, k.Evictor, v); err != nil {
			sp.End()
			return nil, fmt.Errorf("experiments: conflict graph: %w", err)
		}
	}
	sp.SetAttr("edges", g.NumEdges())
	sp.End()
	return &Pipeline{
		Workload: prog.Name,
		Prog:     prog,
		Prof:     prof,
		Cache:    cacheSpec,
		SPMSize:  spmSize,
		Set:      set,
		Graph:    g,
		Baseline: base,
		Cost:     cost,
	}, nil
}

// Outcome is the measured result of one allocator under one pipeline.
type Outcome struct {
	// Allocator names the technique ("casa", "casa-greedy", "steinke",
	// "loopcache", "cache-only").
	Allocator string
	// Result is the full simulation result.
	Result *memsim.Result
	// EnergyMicroJ is the total instruction-memory energy in µJ.
	EnergyMicroJ float64
	// PlacedTraces and UsedBytes describe the allocation (scratchpad
	// techniques only).
	PlacedTraces int
	UsedBytes    int
	// SolverNodes reports ILP effort (CASA only).
	SolverNodes int
	// Degraded marks an anytime result: the ILP stopped on its budget or
	// cancellation and the allocation is the best incumbent (or the
	// greedy fallback) rather than a proven optimum.
	Degraded bool
	// DegradedReason says why ("deadline", "canceled", "node-limit", ...).
	DegradedReason string
	// Gap is the relative optimality gap of a degraded incumbent
	// (0 when proven optimal or unknown).
	Gap float64
	// Fallback marks a degraded result obtained from GreedyAllocate
	// because the solver produced no incumbent at all.
	Fallback bool
}

func (p *Pipeline) finish(name string, res *memsim.Result, placed, used, nodes int) *Outcome {
	return &Outcome{
		Allocator:    name,
		Result:       res,
		EnergyMicroJ: res.TotalEnergyMicroJ(),
		PlacedTraces: placed,
		UsedBytes:    used,
		SolverNodes:  nodes,
	}
}

// casaParams derives the CASA energy parameters from the pipeline's cost
// model.
func (p *Pipeline) casaParams() core.Params {
	return core.Params{
		SPMSize:    p.SPMSize,
		ESPHit:     p.Cost.SPMAccess,
		ECacheHit:  p.Cost.CacheHit,
		ECacheMiss: p.Cost.CacheMiss,
		Solver:     ilp.Options{Budget: p.SolveBudget, Session: p.Session},
	}
}

// outcome returns the memoized result for key, computing it at most once
// via fn even under concurrent callers. Lookups are counted in the memo
// hit/miss metrics; a "hit" is any call that finds the entry already
// created (it may still block briefly on the in-flight computation).
func (p *Pipeline) outcome(key string, fn func() (*Outcome, error)) (*Outcome, error) {
	p.mu.Lock()
	if p.outcomes == nil {
		p.outcomes = make(map[string]*outcomeEntry)
	}
	e, ok := p.outcomes[key]
	if !ok {
		e = &outcomeEntry{}
		p.outcomes[key] = e
	}
	p.mu.Unlock()
	if ok {
		mOutHits.Inc()
	} else {
		mOutMisses.Inc()
	}
	e.once.Do(func() { e.out, e.err = fn() })
	return e.out, e.err
}

// CASAAllocation returns the pipeline's CASA ILP allocation, solved at
// most once; RunCASA, the ablations and the WCET study all share it.
func (p *Pipeline) CASAAllocation(ctx context.Context) (*core.Allocation, error) {
	p.mu.Lock()
	created := p.alloc == nil
	if created {
		p.alloc = &allocEntry{}
	}
	e := p.alloc
	p.mu.Unlock()
	if created {
		mAllocMisses.Inc()
	} else {
		mAllocHits.Inc()
	}
	e.once.Do(func() {
		actx, sp := obs.StartSpan(ctx, "allocate")
		defer sp.End()
		sp.SetAttr("workload", p.Workload)
		params := p.casaParams()
		if p.suite != nil {
			// Cross-cell warm start: seed the solve with the tightest
			// cutoff transferable from a solved neighboring cell, plus —
			// when a partition-matching donor exists — that donor's simplex
			// basis and pseudocosts (warmplan.go). Cold cells are counted
			// as misses here; hits are counted by the solver when it
			// installs the cutoff.
			if cut, hot, ok := p.suite.warmCutoff(p, params); ok {
				params.Solver.Cutoff = &cut
				params.Solver.HotStart = hot
				sp.SetAttr("warm_cutoff", cut)
			} else {
				mWarmCellMisses.Inc()
			}
		} else if p.WarmCutoff != nil {
			params.Solver.Cutoff = p.WarmCutoff
			params.Solver.HotStart = p.WarmHot
			sp.SetAttr("warm_cutoff", *p.WarmCutoff)
		}
		e.alloc, e.err = core.Allocate(actx, p.Set, p.Graph, params)
		if e.err != nil {
			e.err = fmt.Errorf("experiments: casa %s/%d: %w", p.Workload, p.SPMSize, e.err)
		} else if p.suite != nil {
			p.suite.recordWarm(p, e.alloc)
		}
	})
	if e.err == nil && e.alloc.Degraded {
		// Annotate every caller's span (memo hits included) so each cell
		// that consumes a degraded allocation is visible in run reports.
		_, sp := obs.StartSpan(ctx, "degraded-allocation")
		sp.SetAttr("degraded", e.alloc.DegradedReason)
		sp.SetAttr("gap", e.alloc.Gap)
		if e.alloc.Fallback {
			sp.SetAttr("fallback", "greedy")
		}
		sp.End()
	}
	return e.alloc, e.err
}

// RunCASA allocates with the paper's algorithm (copy semantics) and
// simulates the result.
func (p *Pipeline) RunCASA(ctx context.Context) (*Outcome, error) {
	return p.outcome("casa", func() (*Outcome, error) {
		alloc, err := p.CASAAllocation(ctx)
		if err != nil {
			return nil, err
		}
		out, err := p.runSPM(ctx, "casa", alloc.InSPM, layout.Copy, alloc.UsedBytes, alloc.Nodes)
		if err != nil {
			return nil, err
		}
		out.Degraded = alloc.Degraded
		out.DegradedReason = alloc.DegradedReason
		out.Gap = alloc.Gap
		out.Fallback = alloc.Fallback
		return out, nil
	})
}

// RunCASAGreedy runs the greedy variant of the fine-grained model (for
// ablation).
func (p *Pipeline) RunCASAGreedy(ctx context.Context) (*Outcome, error) {
	return p.outcome("casa-greedy", func() (*Outcome, error) {
		alloc, err := core.GreedyAllocate(ctx, p.Set, p.Graph, p.casaParams())
		if err != nil {
			return nil, err
		}
		return p.runSPM(ctx, "casa-greedy", alloc.InSPM, layout.Copy, alloc.UsedBytes, 0)
	})
}

// RunSteinke allocates with the cache-unaware knapsack baseline [13]
// (move semantics) and simulates the result.
func (p *Pipeline) RunSteinke(ctx context.Context) (*Outcome, error) {
	return p.outcome("steinke", func() (*Outcome, error) {
		alloc, err := steinke.Allocate(p.Set, p.SPMSize)
		if err != nil {
			return nil, err
		}
		return p.runSPM(ctx, "steinke", alloc.InSPM, layout.Move, alloc.UsedBytes, 0)
	})
}

// RunSelection simulates an arbitrary scratchpad selection under the given
// placement semantics; the ablation benches use it to isolate copy vs.
// move effects.
func (p *Pipeline) RunSelection(ctx context.Context, name string, inSPM []bool, mode layout.Mode) (*Outcome, error) {
	used := 0
	placed := 0
	for i, in := range inSPM {
		if in {
			used += p.Set.Traces[i].RawBytes
			placed++
		}
	}
	return p.runSPM(ctx, name, inSPM, mode, used, 0)
}

func (p *Pipeline) runSPM(ctx context.Context, name string, inSPM []bool, mode layout.Mode, used, nodes int) (*Outcome, error) {
	_, sp := obs.StartSpan(ctx, "spm-layout")
	lay, err := layout.New(p.Set, inSPM, layout.Options{Mode: mode, SPMSize: p.SPMSize})
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "simulate")
	sp.SetAttr("allocator", name)
	res, err := memsim.Run(p.Prog, lay, memsim.Config{
		Cache: p.Cache.cacheConfig(),
		Cost:  p.Cost,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	placed := 0
	for _, in := range inSPM {
		if in {
			placed++
		}
	}
	return p.finish(name, res, placed, used, nodes), nil
}

// RunLoopCache preloads a loop cache of the pipeline's size with Ross's
// heuristic [12] and simulates the result. The loop cache replaces the
// scratchpad (Figure 1(b)); the main-memory layout is the plain trace
// layout.
func (p *Pipeline) RunLoopCache(ctx context.Context) (*Outcome, error) {
	return p.outcome("loopcache", func() (*Outcome, error) { return p.runLoopCache(ctx) })
}

func (p *Pipeline) runLoopCache(ctx context.Context) (*Outcome, error) {
	plain, err := layout.New(p.Set, nil, layout.Options{})
	if err != nil {
		return nil, err
	}
	cands := loopcache.Candidates(p.Prog, p.Prof, plain)
	ctrl, err := loopcache.Allocate(loopcache.Config{
		SizeBytes:  p.SPMSize,
		MaxRegions: LoopCacheEntries,
	}, cands)
	if err != nil {
		return nil, fmt.Errorf("experiments: loopcache %s/%d: %w", p.Workload, p.SPMSize, err)
	}
	cost, err := energy.NewCostModel(energy.Config{
		Cache:            p.Cache.geometry(),
		LoopCacheBytes:   p.SPMSize,
		LoopCacheEntries: LoopCacheEntries,
	})
	if err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "simulate")
	sp.SetAttr("allocator", "loopcache")
	res, err := memsim.Run(p.Prog, plain, memsim.Config{
		Cache:     p.Cache.cacheConfig(),
		LoopCache: ctrl,
		Cost:      cost,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	return p.finish("loopcache", res, len(ctrl.Regions()), ctrl.Used(), 0), nil
}

// RunCacheOnly simulates the trace layout with no scratchpad or loop
// cache: the reference hierarchy.
func (p *Pipeline) RunCacheOnly(ctx context.Context) (*Outcome, error) {
	return p.outcome("cache-only", func() (*Outcome, error) { return p.runCacheOnly(ctx) })
}

func (p *Pipeline) runCacheOnly(ctx context.Context) (*Outcome, error) {
	plain, err := layout.New(p.Set, nil, layout.Options{})
	if err != nil {
		return nil, err
	}
	cost, err := energy.NewCostModel(energy.Config{Cache: p.Cache.geometry()})
	if err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "simulate")
	sp.SetAttr("allocator", "cache-only")
	res, err := memsim.Run(p.Prog, plain, memsim.Config{
		Cache: p.Cache.cacheConfig(),
		Cost:  cost,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	return p.finish("cache-only", res, 0, 0, 0), nil
}

// Suite memoizes pipelines so that figures sharing configurations (e.g.
// Figure 4, Figure 5 and Table 1 all use mpeg with a 2 kB cache) prepare
// them once, and carries the worker-pool width the study functions fan
// out with. A Suite is safe for concurrent use.
type Suite struct {
	mu          sync.Mutex
	workers     int
	solveBudget time.Duration
	pipelines   map[suiteKey]*suiteEntry

	// warm holds solved cells for cross-cell warm starts; session shares
	// presolve reductions across the suite's solves (warmplan.go).
	warm    warmStore
	session *ilp.Session

	// graphs holds the first conflict graph built per trace partition —
	// (workload, scratchpad size, line size) fixes the vertex layer — so
	// cells differing only in cache geometry rebase onto it instead of
	// rebuilding it (conflict.Rebase).
	graphs map[graphKey]*conflict.Graph
}

// graphKey identifies a trace partition: the parameters that determine
// the conflict graph's vertex set (but not its edge weights).
type graphKey struct {
	name      string
	spmSize   int
	lineBytes int
}

// graphDonor returns a previously built conflict graph over the same
// trace partition, if any.
func (s *Suite) graphDonor(k graphKey) *conflict.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graphs[k]
}

// recordGraph stores the first conflict graph built for a partition.
func (s *Suite) recordGraph(k graphKey, g *conflict.Graph) {
	s.mu.Lock()
	if s.graphs == nil {
		s.graphs = make(map[graphKey]*conflict.Graph)
	}
	if _, ok := s.graphs[k]; !ok {
		s.graphs[k] = g
	}
	s.mu.Unlock()
}

type suiteKey struct {
	name    string
	cache   CacheSpec
	spmSize int
}

type suiteEntry struct {
	once sync.Once
	p    *Pipeline
	err  error
}

// NewSuite returns an empty suite with the default worker count
// (CASA_WORKERS, else GOMAXPROCS-style runtime.NumCPU).
func NewSuite() *Suite {
	return &Suite{pipelines: make(map[suiteKey]*suiteEntry), session: ilp.NewSession()}
}

// SetWorkers fixes the worker-pool width for this suite's studies
// (0 restores the default resolution) and returns the suite for
// chaining.
func (s *Suite) SetWorkers(n int) *Suite {
	s.mu.Lock()
	s.workers = n
	s.mu.Unlock()
	return s
}

// Workers returns the resolved worker-pool width the suite's studies run
// with.
func (s *Suite) Workers() int {
	s.mu.Lock()
	n := s.workers
	s.mu.Unlock()
	return parallel.Workers(n)
}

// SetSolveBudget caps each pipeline's CASA ILP solve at d of wall clock
// (0 = unlimited) and returns the suite for chaining. The budget applies
// to pipelines prepared after the call; on expiry a solve degrades to
// its incumbent (or the greedy fallback) instead of failing.
func (s *Suite) SetSolveBudget(d time.Duration) *Suite {
	s.mu.Lock()
	s.solveBudget = d
	s.mu.Unlock()
	return s
}

// SolveBudget returns the suite's per-solve wall-clock budget.
func (s *Suite) SolveBudget() time.Duration {
	s.mu.Lock()
	d := s.solveBudget
	s.mu.Unlock()
	return d
}

// Pipeline returns the (possibly cached) pipeline for a configuration.
// Concurrent callers of the same configuration share one preparation.
func (s *Suite) Pipeline(ctx context.Context, name string, cacheSpec CacheSpec, spmSize int) (*Pipeline, error) {
	k := suiteKey{name: name, cache: cacheSpec, spmSize: spmSize}
	s.mu.Lock()
	e, ok := s.pipelines[k]
	if !ok {
		e = &suiteEntry{}
		s.pipelines[k] = e
	}
	s.mu.Unlock()
	if ok {
		mPipeHits.Inc()
	} else {
		mPipeMisses.Inc()
	}
	e.once.Do(func() {
		prog, err := workload.Shared(name)
		if err != nil {
			e.err = err
			return
		}
		gk := graphKey{name: name, spmSize: spmSize, lineBytes: cacheSpec.Line}
		e.p, e.err = prepareProgram(ctx, prog, cacheSpec, spmSize, s.graphDonor(gk))
		if e.err == nil {
			e.p.SolveBudget = s.SolveBudget()
			e.p.Session = s.session
			e.p.suite = s
			s.recordGraph(gk, e.p.Graph)
		}
	})
	return e.p, e.err
}

// runCells evaluates n independent experiment cells on the suite's worker
// pool and returns their results in cell order, regardless of worker
// count or scheduling. The caller's context — tracer included — reaches
// every cell, so per-cell spans nest under the study span even though the
// cells run on pool goroutines.
//
// Cells that fail (or panic — the pool converts panics to CellErrors) do
// not cancel their siblings: every healthy cell still produces its row,
// and the losing cells come back in a *parallel.GridError alongside the
// partial results, so a faulted grid degrades instead of vanishing.
func runCells[T any](ctx context.Context, s *Suite, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return parallel.MapAll(ctx, n, s.Workers(),
		func(cctx context.Context, i int) (T, error) {
			cctx, sp := obs.StartSpan(cctx, "cell")
			defer sp.End()
			sp.SetAttr("index", i)
			return fn(cctx, i)
		})
}
