package experiments

import (
	"context"
	"errors"
	"sort"
	"sync"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Cross-cell warm starts. The study grids solve one CASA ILP per
// (workload, cache, scratchpad-size) cell, and neighboring cells —
// differing in a single parameter — have closely related optima: a
// feasible allocation for one maps (via core.TransferAllocation) to a
// feasible allocation for the other, whose predicted energy becomes an
// immediate upper-bound cutoff for the neighbor's solve. The suite
// keeps every solved cell's selection in a warm store; before a cell
// solves, the planner values all solved single-parameter neighbors and
// passes the best (minimum) cutoff to the solver.
//
// The cutoff only prunes provably-worse subtrees (see ilp.Options), so
// results are identical to cold solves; only time changes. Grid
// evaluation is ordered largest-scratchpad-first (warmOrder) so the
// expensive small-scratchpad cells — whose ILPs are most constrained
// and slowest — always find a solved donor. With several workers the
// set of donors available to a cell depends on scheduling, but since
// cutoffs never change results, only casa_ilp_warm_cell_{hits,misses}
// counters vary; run a study with one worker for deterministic
// counters.

// mWarmCellMisses counts CASA cell solves that ran cold because no
// solved neighboring cell was available to donate a cutoff. Its twin
// casa_ilp_warm_cell_hits_total is counted at the solver, which sees
// every cutoff actually installed.
var mWarmCellMisses = obs.GetCounter("casa_ilp_warm_cell_misses_total")

// warmStore holds the solved cells of one suite.
type warmStore struct {
	mu    sync.Mutex
	cells map[suiteKey]*warmCell
}

// warmCell is one solved cell's allocation with the inputs needed to
// transfer it: the trace set it indexes, the conflict graph backing its
// energy valuation, its grid key (for deterministic donor ordering and
// partition gating) and the solver's transferable hot state.
type warmCell struct {
	key   suiteKey
	set   *trace.Set
	graph *conflict.Graph
	inSPM []bool
	hot   *ilp.HotStart
}

// record stores a cell's proven-optimal selection for later transfers.
func (w *warmStore) record(k suiteKey, set *trace.Set, g *conflict.Graph, inSPM []bool, hot *ilp.HotStart) {
	w.mu.Lock()
	if w.cells == nil {
		w.cells = make(map[suiteKey]*warmCell)
	}
	w.cells[k] = &warmCell{key: k, set: set, graph: g, inSPM: inSPM, hot: hot}
	w.mu.Unlock()
}

// neighbors returns the solved cells differing from k in exactly one
// grid parameter (cache configuration or scratchpad size) for the same
// workload, sorted by grid key so iteration order — and therefore any
// tie-break among equal-value donors — never depends on map order.
func (w *warmStore) neighbors(k suiteKey) []*warmCell {
	w.mu.Lock()
	var out []*warmCell
	for dk, c := range w.cells {
		if dk.name != k.name || dk == k {
			continue
		}
		cacheDiff := dk.cache != k.cache
		spmDiff := dk.spmSize != k.spmSize
		if cacheDiff != spmDiff { // exactly one differs
			out = append(out, c)
		}
	}
	w.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return keyLess(out[a].key, out[b].key) })
	return out
}

// keyLess orders grid keys deterministically (workload, scratchpad,
// cache geometry, policy).
func keyLess(a, b suiteKey) bool {
	if a.name != b.name {
		return a.name < b.name
	}
	if a.spmSize != b.spmSize {
		return a.spmSize < b.spmSize
	}
	if a.cache.Size != b.cache.Size {
		return a.cache.Size < b.cache.Size
	}
	if a.cache.Line != b.cache.Line {
		return a.cache.Line < b.cache.Line
	}
	if a.cache.Assoc != b.cache.Assoc {
		return a.cache.Assoc < b.cache.Assoc
	}
	return a.cache.Policy < b.cache.Policy
}

// warmCutoff values every solved neighbor's selection under the target
// cell's parameters and returns the tightest transferable cutoff. The
// cutoff is the minimum over donors, so it does not depend on the order
// cells happened to finish in. Alongside it, the planner picks a basis
// donor: among neighbors sharing the target's trace partition — same
// scratchpad capacity and line size fix the variable identities, so the
// donor's columns map by name — the one with the lowest transferred
// value donates its final simplex basis and pseudocosts (hot). Cells on
// a different partition (scratchpad-size neighbors) still donate
// cutoffs but no basis.
func (s *Suite) warmCutoff(p *Pipeline, params core.Params) (cut float64, hot *ilp.HotStart, found bool) {
	k := suiteKey{name: p.Workload, cache: p.Cache, spmSize: p.SPMSize}
	bestHot := 0.0
	for _, donor := range s.warm.neighbors(k) {
		sel := core.TransferAllocation(donor.set, donor.inSPM, p.Set, params)
		if sel == nil {
			continue
		}
		v := core.PredictEnergy(p.Set, p.Graph, params, sel)
		if !found || v < cut {
			cut, found = v, true
		}
		if donor.hot != nil && donor.key.spmSize == k.spmSize && donor.key.cache.Line == k.cache.Line &&
			(hot == nil || v < bestHot) {
			bestHot, hot = v, donor.hot
		}
	}
	return cut, hot, found
}

// TransferCutoff values a donor selection — from a pipeline over the
// same program under a different memory hierarchy — under this
// pipeline's parameters and returns it as a warm-start cutoff. It is
// the warmCutoff building block exported for callers with their own
// cross-pipeline warm stores (the serving daemon); ok is false when the
// donor does not transfer (different program).
func (p *Pipeline) TransferCutoff(donorSet *trace.Set, donorInSPM []bool) (float64, bool) {
	params := p.casaParams()
	sel := core.TransferAllocation(donorSet, donorInSPM, p.Set, params)
	if sel == nil {
		return 0, false
	}
	return core.PredictEnergy(p.Set, p.Graph, params, sel), true
}

// recordWarm publishes a cell's solved allocation as a donor for its
// neighbors. Only proven-optimal, non-degraded selections are recorded:
// a budget-degraded incumbent depends on wall-clock timing, and warm
// state must never introduce nondeterminism into what other cells do.
func (s *Suite) recordWarm(p *Pipeline, a *core.Allocation) {
	if a.Status != ilp.Optimal || a.Degraded || a.Fallback {
		return
	}
	k := suiteKey{name: p.Workload, cache: p.Cache, spmSize: p.SPMSize}
	s.warm.record(k, p.Set, p.Graph, a.InSPM, a.Hot)
}

// warmOrder returns the cell evaluation order for a grid whose i-th
// cell has scratchpad size sizes[i]: descending size, ties in index
// order. The largest scratchpad solves first because its ILP is the
// least constrained (cheapest cold), and every smaller cell then finds
// a solved donor; allocations for scratchpad k map into capacity k' < k
// after eviction repair, keeping transfers tight down the whole sweep.
func warmOrder(sizes []int) []int {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sizes[order[a]] > sizes[order[b]]
	})
	return order
}

// runCellsOrdered is runCells with an explicit evaluation order:
// order[k] is the cell index to run k-th. Results — and the indices
// inside a *parallel.GridError — are mapped back to cell order, so
// callers see the grid exactly as if it ran in natural order. With one
// worker the order is exactly the serial execution sequence; with more
// workers it is the submission order.
func runCellsOrdered[T any](ctx context.Context, s *Suite, order []int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	tmp, err := parallel.MapAll(ctx, len(order), s.Workers(),
		func(cctx context.Context, k int) (T, error) {
			i := order[k]
			cctx, sp := obs.StartSpan(cctx, "cell")
			defer sp.End()
			sp.SetAttr("index", i)
			return fn(cctx, i)
		})
	out := make([]T, len(order))
	for k, i := range order {
		if k < len(tmp) {
			out[i] = tmp[k]
		}
	}
	var ge *parallel.GridError
	if errors.As(err, &ge) {
		for _, ce := range ge.Failed {
			if ce.Index >= 0 && ce.Index < len(order) {
				ce.Index = order[ce.Index]
			}
		}
		sort.Slice(ge.Failed, func(a, b int) bool { return ge.Failed[a].Index < ge.Failed[b].Index })
		for k, i := range ge.Skipped {
			if i >= 0 && i < len(order) {
				ge.Skipped[k] = order[i]
			}
		}
		sort.Ints(ge.Skipped)
	}
	return out, err
}
