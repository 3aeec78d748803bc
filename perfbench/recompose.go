package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/loopcache"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/steinke"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The traced run recomposes every pipeline cell of a grid through the
// module calls, in the order experiments.Pipeline makes them, at one
// worker, with a span around each call. Cross-cell state mirrors what a
// Suite keeps: cells run in the studies' order (largest scratchpad
// first within a grid), one ilp.Session shares presolve, conflict graphs
// rebase onto the first graph of their trace partition, and each CASA
// solve is warm-started from solved single-parameter neighbours exactly
// as the suite's planner does, through the same public building blocks
// (core.TransferAllocation, core.PredictEnergy, ilp.Options).

// cellKey identifies a pipeline cell.
type cellKey struct {
	workload string
	cache    experiments.CacheSpec
	spm      int
}

func (k cellKey) String() string {
	return fmt.Sprintf("%s/%dB-%dway-%dBline/%dB", k.workload, k.cache.Size, k.cache.Assoc, k.cache.Line, k.spm)
}

// cellSpec is one visit of a cell by a study: the allocators it asks
// for. A later visit runs only the allocators not yet run on the cell,
// as the suite's outcome memo would.
type cellSpec struct {
	cellKey
	allocs []string
}

// descBySize orders a grid's sizes largest first, ties in index order
// (the suite's evaluation order for warm starts).
func descBySize(sizes []int) []int {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	return order
}

func fig4Cells(cfg experiments.Fig4Config, allocs ...string) []cellSpec {
	var out []cellSpec
	for _, i := range descBySize(cfg.SPMSizes) {
		out = append(out, cellSpec{cellKey{cfg.Workload, cfg.Cache, cfg.SPMSizes[i]}, allocs})
	}
	return out
}

// paperCells are the pipeline cells of grid-paper's four grid studies
// (Figure 4, Figure 5, Table 1, hierarchy sensitivity), in study order.
// The other studies reuse these pipelines or call modules outside the
// pipeline; their cost shows in experiments.<study>_ms.
func paperCells() []cellSpec {
	out := fig4Cells(experiments.DefaultFig4(), "casa", "steinke")
	f5 := experiments.DefaultFig5()
	out = append(out, fig4Cells(experiments.Fig4Config{Workload: f5.Workload, Cache: f5.Cache, SPMSizes: f5.Sizes},
		"casa", "loopcache")...)
	var t1 []cellSpec
	var sizes []int
	for _, b := range experiments.DefaultTable1().Benchmarks {
		for _, size := range b.MemSizes {
			t1 = append(t1, cellSpec{cellKey{b.Workload, b.Cache, size}, []string{"casa", "steinke", "loopcache"}})
			sizes = append(sizes, size)
		}
	}
	for _, i := range descBySize(sizes) {
		out = append(out, t1[i])
	}
	sens := experiments.DefaultSensitivity()
	for _, v := range sens.Variants {
		out = append(out, cellSpec{cellKey{sens.Workload, v, sens.SPMSize}, []string{"cache-only", "casa", "steinke"}})
	}
	return out
}

func dseCells() []cellSpec {
	var out []cellSpec
	for _, g := range dseGrids() {
		out = append(out, fig4Cells(g, "casa", "steinke")...)
	}
	return out
}

// span is one timed module call of the traced run; cell is the index
// of the cell visit that made it.
type span struct {
	name string
	cell int
	dur  time.Duration
}

// cellState is what a recomposed cell keeps, like an experiments.Pipeline.
type cellState struct {
	prog  *ir.Program
	prof  *sim.Profile
	set   *trace.Set
	graph *conflict.Graph
	cost  energy.CostModel
	out   map[string]float64 // allocator → energy (µJ)
	inSPM []bool             // CASA selection
}

// traceStats is one traced recomposition pass.
type traceStats struct {
	wall   float64
	spans  []span
	counts map[string]float64 // the benchmark's own counts
	delta  obs.Snapshot       // program counters over the pass
	cells  map[cellKey]*cellState
}

// total sums the durations of the named spans, in milliseconds.
func (t *traceStats) total(name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur
		}
	}
	return ms(d.Seconds())
}

type recomposer struct {
	ts      *traceStats
	cell    int
	session *ilp.Session
	warm    []warmCell
	graphs  map[cellKey]*conflict.Graph // trace partition → first graph
}

// warmCell is a solved cell's transferable CASA answer.
type warmCell struct {
	key   cellKey
	set   *trace.Set
	inSPM []bool
	hot   *ilp.HotStart
}

// call runs fn inside a span named name.
func (r *recomposer) call(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	r.ts.spans = append(r.ts.spans, span{name: name, cell: r.cell, dur: time.Since(start)})
	return err
}

func (r *recomposer) count(name string, n int) { r.ts.counts[name] += float64(n) }

// recompose runs one traced pass over cells, cold: the shared programs'
// memos are forgotten first, as before every untraced cold round.
func recompose(ctx context.Context, cells []cellSpec, progs []*ir.Program) (*traceStats, error) {
	forget(progs)
	r := &recomposer{
		ts: &traceStats{
			counts: make(map[string]float64),
			cells:  make(map[cellKey]*cellState),
		},
		session: ilp.NewSession(),
		graphs:  make(map[cellKey]*conflict.Graph),
	}
	before := obs.Default.Snapshot()
	start := time.Now()
	for i, c := range cells {
		r.cell = i
		if err := r.visit(ctx, c); err != nil {
			return nil, fmt.Errorf("traced %v: %w", c.cellKey, err)
		}
	}
	r.ts.wall = elapsed(start)
	r.ts.delta = obs.Default.Delta(before)
	return r.ts, nil
}

func (r *recomposer) visit(ctx context.Context, c cellSpec) error {
	st, ok := r.ts.cells[c.cellKey]
	if !ok {
		var err error
		if st, err = r.prepare(c.cellKey); err != nil {
			return err
		}
		r.ts.cells[c.cellKey] = st
	}
	for _, a := range c.allocs {
		if _, done := st.out[a]; done {
			continue
		}
		var err error
		switch a {
		case "casa":
			err = r.casa(ctx, c.cellKey, st)
		case "steinke":
			err = r.steinke(c.cellKey, st)
		case "loopcache":
			err = r.loopCache(c.cellKey, st)
		case "cache-only":
			err = r.cacheOnly(c.cellKey, st)
		default:
			err = fmt.Errorf("unknown allocator %q", a)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
	}
	return nil
}

// cacheCfg and geometry restate experiments.CacheSpec's unexported
// conversions.
func cacheCfg(c experiments.CacheSpec) cache.Config {
	return cache.Config{SizeBytes: c.Size, LineBytes: c.Line, Assoc: c.Assoc, Replacement: c.Policy}
}

func geometry(c experiments.CacheSpec) energy.CacheGeometry {
	return energy.CacheGeometry{SizeBytes: c.Size, LineBytes: c.Line, Assoc: c.Assoc}
}

// prepare mirrors experiments.PrepareProgram: profile, trace partition,
// plain layout, cost model, conflict-tracking baseline, conflict graph.
func (r *recomposer) prepare(k cellKey) (*cellState, error) {
	prog, err := workload.Shared(k.workload)
	if err != nil {
		return nil, err
	}
	st := &cellState{prog: prog, out: make(map[string]float64)}
	if err := r.call("sim.profile", func() error {
		st.prof, err = sim.CachedProfile(prog)
		if err == nil {
			_, err = sim.CachedTrace(prog)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.call("trace.partition", func() error {
		st.set, err = trace.Build(prog, st.prof, trace.Options{MaxBytes: k.spm, LineBytes: k.cache.Line})
		return err
	}); err != nil {
		return nil, err
	}
	r.count("trace.traces", len(st.set.Traces))
	var plain *layout.Layout
	if err := r.call("layout", func() error {
		plain, err = layout.New(st.set, nil, layout.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.call("energy.model", func() error {
		st.cost, err = energy.NewCostModel(energy.Config{Cache: geometry(k.cache), SPMBytes: k.spm})
		return err
	}); err != nil {
		return nil, err
	}
	var base *memsim.Result
	if err := r.call("memsim.baseline", func() error {
		base, err = memsim.Run(prog, plain, memsim.Config{
			Cache: cacheCfg(k.cache), Cost: st.cost, TrackConflicts: true, KeepCache: true,
		})
		return err
	}); err != nil {
		return nil, err
	}
	err = r.call("conflict.build", func() error {
		fetches := make([]int64, len(st.set.Traces))
		for i, t := range st.set.Traces {
			fetches[i] = t.Fetches
		}
		part := cellKey{workload: k.workload, spm: k.spm, cache: experiments.CacheSpec{Line: k.cache.Line}}
		if donor := r.graphs[part]; donor != nil && donor.MatchesFetches(fetches) {
			st.graph = donor.Rebase()
			r.count("conflict.rebases", 1)
		} else {
			st.graph = conflict.New(fetches)
			if donor == nil {
				r.graphs[part] = st.graph
			}
		}
		for ck, n := range base.Conflicts {
			if err := st.graph.AddMisses(ck.Victim, ck.Evictor, n); err != nil {
				return err
			}
		}
		return nil
	})
	r.count("conflict.edges", st.graph.NumEdges())
	return st, err
}

// casa mirrors Pipeline.RunCASA inside a suite: warm-started solve,
// copy-mode layout, simulation.
func (r *recomposer) casa(ctx context.Context, k cellKey, st *cellState) error {
	params := core.Params{
		SPMSize:    k.spm,
		ESPHit:     st.cost.SPMAccess,
		ECacheHit:  st.cost.CacheHit,
		ECacheMiss: st.cost.CacheMiss,
		Solver:     ilp.Options{Session: r.session},
	}
	if cut, hot, ok := r.warmStart(k, st, params); ok {
		params.Solver.Cutoff = &cut
		params.Solver.HotStart = hot
	}
	var err error
	if err := r.call("core.build", func() error {
		m, _, err := core.BuildModel(st.set, st.graph, params)
		if m != nil {
			r.count("core.vars", m.NumVars())
		}
		return err
	}); err != nil {
		return err
	}
	var a *core.Allocation
	if err := r.call("core.allocate", func() error {
		a, err = core.Allocate(ctx, st.set, st.graph, params)
		return err
	}); err != nil {
		return err
	}
	r.count("casa.solves", 1)
	if a.Status == ilp.Optimal && !a.Degraded && !a.Fallback {
		r.warm = append(r.warm, warmCell{key: k, set: st.set, inSPM: a.InSPM, hot: a.Hot})
	}
	st.inSPM = a.InSPM
	return r.simulate("casa", k, st, a.InSPM, layout.Copy, st.cost)
}

// warmStart mirrors the suite's warm planner: the cutoff is the minimum
// transferred value over solved cells differing in exactly one of cache
// and scratchpad; the basis donor is the lowest-valued one sharing the
// trace partition.
func (r *recomposer) warmStart(k cellKey, st *cellState, params core.Params) (cut float64, hot *ilp.HotStart, found bool) {
	var nbrs []warmCell
	for _, w := range r.warm {
		if w.key.workload == k.workload && (w.key.cache != k.cache) != (w.key.spm != k.spm) {
			nbrs = append(nbrs, w)
		}
	}
	sort.Slice(nbrs, func(a, b int) bool { return keyLess(nbrs[a].key, nbrs[b].key) })
	bestHot := 0.0
	for _, d := range nbrs {
		sel := core.TransferAllocation(d.set, d.inSPM, st.set, params)
		if sel == nil {
			continue
		}
		v := core.PredictEnergy(st.set, st.graph, params, sel)
		if !found || v < cut {
			cut, found = v, true
		}
		if d.hot != nil && d.key.spm == k.spm && d.key.cache.Line == k.cache.Line && (hot == nil || v < bestHot) {
			bestHot, hot = v, d.hot
		}
	}
	return cut, hot, found
}

// keyLess orders cells as the suite's planner does (workload,
// scratchpad, cache size, line, associativity, policy).
func keyLess(a, b cellKey) bool {
	switch {
	case a.workload != b.workload:
		return a.workload < b.workload
	case a.spm != b.spm:
		return a.spm < b.spm
	case a.cache.Size != b.cache.Size:
		return a.cache.Size < b.cache.Size
	case a.cache.Line != b.cache.Line:
		return a.cache.Line < b.cache.Line
	case a.cache.Assoc != b.cache.Assoc:
		return a.cache.Assoc < b.cache.Assoc
	}
	return a.cache.Policy < b.cache.Policy
}

// steinke mirrors Pipeline.RunSteinke: knapsack, move-mode layout.
func (r *recomposer) steinke(k cellKey, st *cellState) error {
	var a *steinke.Allocation
	var err error
	if err := r.call("steinke.alloc", func() error {
		a, err = steinke.Allocate(st.set, k.spm)
		return err
	}); err != nil {
		return err
	}
	return r.simulate("steinke", k, st, a.InSPM, layout.Move, st.cost)
}

// loopCache mirrors Pipeline.RunLoopCache: Ross's preloading over the
// plain layout, with the loop-cache cost model.
func (r *recomposer) loopCache(k cellKey, st *cellState) error {
	var plain *layout.Layout
	var err error
	if err := r.call("layout", func() error {
		plain, err = layout.New(st.set, nil, layout.Options{})
		return err
	}); err != nil {
		return err
	}
	var ctrl *loopcache.Controller
	if err := r.call("loopcache.alloc", func() error {
		cands := loopcache.Candidates(st.prog, st.prof, plain)
		ctrl, err = loopcache.Allocate(loopcache.Config{
			SizeBytes: k.spm, MaxRegions: experiments.LoopCacheEntries,
		}, cands)
		return err
	}); err != nil {
		return err
	}
	var cost energy.CostModel
	if err := r.call("energy.model", func() error {
		cost, err = energy.NewCostModel(energy.Config{
			Cache: geometry(k.cache), LoopCacheBytes: k.spm, LoopCacheEntries: experiments.LoopCacheEntries,
		})
		return err
	}); err != nil {
		return err
	}
	return r.run("loopcache", k, st, plain, memsim.Config{Cache: cacheCfg(k.cache), LoopCache: ctrl, Cost: cost})
}

// cacheOnly mirrors Pipeline.RunCacheOnly: the plain layout without a
// scratchpad.
func (r *recomposer) cacheOnly(k cellKey, st *cellState) error {
	var plain *layout.Layout
	var err error
	if err := r.call("layout", func() error {
		plain, err = layout.New(st.set, nil, layout.Options{})
		return err
	}); err != nil {
		return err
	}
	var cost energy.CostModel
	if err := r.call("energy.model", func() error {
		cost, err = energy.NewCostModel(energy.Config{Cache: geometry(k.cache)})
		return err
	}); err != nil {
		return err
	}
	return r.run("cache-only", k, st, plain, memsim.Config{Cache: cacheCfg(k.cache), Cost: cost})
}

// simulate lays a scratchpad selection out and simulates it.
func (r *recomposer) simulate(name string, k cellKey, st *cellState, inSPM []bool, mode layout.Mode, cost energy.CostModel) error {
	var lay *layout.Layout
	var err error
	if err := r.call("layout", func() error {
		lay, err = layout.New(st.set, inSPM, layout.Options{Mode: mode, SPMSize: k.spm})
		return err
	}); err != nil {
		return err
	}
	return r.run(name, k, st, lay, memsim.Config{Cache: cacheCfg(k.cache), Cost: cost})
}

func (r *recomposer) run(name string, k cellKey, st *cellState, lay *layout.Layout, cfg memsim.Config) error {
	var res *memsim.Result
	var err error
	if err := r.call("memsim.simulate", func() error {
		res, err = memsim.Run(st.prog, lay, cfg)
		return err
	}); err != nil {
		return err
	}
	st.out[name] = res.TotalEnergyMicroJ()
	return nil
}

// compareCells checks the traced pass against the untraced pass's
// suite: every recomposed energy, and every CASA selection, must equal
// the pipeline outcome the rows were rendered from (memo hits there).
// Each cell counts as attempted, and each mismatching one as failed.
func compareCells(ctx context.Context, s *experiments.Suite, ts *traceStats, res *result) {
	for k, st := range ts.cells {
		res.attempted++
		if err := compareCell(ctx, s, k, st); err != nil {
			res.failed++
			res.fail("%v", err)
		}
	}
}

func compareCell(ctx context.Context, s *experiments.Suite, k cellKey, st *cellState) error {
	p, err := s.Pipeline(ctx, k.workload, k.cache, k.spm)
	if err != nil {
		return fmt.Errorf("%v: %w", k, err)
	}
	for name, e := range st.out {
		var out *experiments.Outcome
		switch name {
		case "casa":
			out, err = p.RunCASA(ctx)
		case "steinke":
			out, err = p.RunSteinke(ctx)
		case "loopcache":
			out, err = p.RunLoopCache(ctx)
		case "cache-only":
			out, err = p.RunCacheOnly(ctx)
		}
		if err != nil {
			return fmt.Errorf("%v %s: %w", k, name, err)
		}
		if out.EnergyMicroJ != e {
			return fmt.Errorf("%v %s: traced energy %.6f µJ, untraced %.6f µJ", k, name, e, out.EnergyMicroJ)
		}
	}
	if st.inSPM != nil {
		a, err := p.CASAAllocation(ctx)
		if err != nil || !equalSel(a.InSPM, st.inSPM) {
			return fmt.Errorf("%v: traced CASA selection differs from the untraced one", k)
		}
	}
	return nil
}
