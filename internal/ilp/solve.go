package ilp

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Solver effort metrics, resolved once. Every Solve records into the
// default registry so run reports can attribute ILP work per study.
var (
	mSolves    = obs.GetCounter("casa_ilp_solves_total")
	mNodes     = obs.GetCounter("casa_ilp_nodes_total")
	mIters     = obs.GetCounter("casa_ilp_simplex_iters_total")
	mBranches  = obs.GetCounter("casa_ilp_branches_total")
	mPruned    = obs.GetCounter("casa_ilp_nodes_pruned_total")
	mWarm      = obs.GetCounter("casa_ilp_warm_starts_total")
	mFallback  = obs.GetCounter("casa_ilp_dense_fallbacks_total")
	mPreRows   = obs.GetCounter("casa_ilp_presolve_rows_dropped_total")
	mPreCols   = obs.GetCounter("casa_ilp_presolve_cols_removed_total")
	mHeuristic = obs.GetCounter("casa_ilp_heuristic_incumbents_total")
	mDegraded  = obs.GetCounter("casa_solve_degraded_total")
)

// Options tunes the solver.
type Options struct {
	// MaxNodes caps the number of branch & bound nodes explored
	// (default 200000). When the cap is hit with an incumbent in hand the
	// solution is returned with Status == Feasible.
	MaxNodes int
	// Tol is the simplex numerical tolerance (default 1e-9). It also
	// scales the incumbent-pruning tolerance, which is relative to the
	// incumbent objective's magnitude.
	Tol float64
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// Trace, when non-nil, receives solver progress lines: one per new
	// incumbent and one every TraceEvery nodes. The per-node cost when
	// nil is a single pointer test.
	Trace io.Writer
	// TraceEvery is the node interval of periodic progress lines
	// (default 1000).
	TraceEvery int
	// Budget caps the wall-clock time of the branch & bound search
	// (0 = unlimited). When it expires the best incumbent found so far is
	// returned with Status == Feasible, Degraded set, and the optimality
	// Gap reported; with no incumbent in hand the result is Aborted (still
	// not an error) so callers can fall back to a heuristic. The context
	// passed to Solve composes with the budget: whichever ends first stops
	// the search the same way.
	Budget time.Duration

	// DisablePresolve skips the root presolve (fixed-variable
	// substitution, redundant-row elimination, bound tightening, dual
	// fixing). Intended for testing and diagnosis.
	DisablePresolve bool
	// DisableWarmStart solves every node LP with the dense from-scratch
	// two-phase simplex instead of the warm-started revised dual simplex.
	// Intended for testing and diagnosis.
	DisableWarmStart bool
	// DisableHeuristic skips the root diving heuristic that seeds the
	// incumbent before the tree search starts. Intended for testing and
	// diagnosis.
	DisableHeuristic bool

	// Cutoff, when non-nil, is the objective value (in the model's own
	// sense and space) of a solution known to be feasible, transferred
	// from a neighboring solve. Subtrees whose relaxation bound cannot
	// strictly beat it are pruned, and node LPs stop mid-solve once
	// their objective passes it. The cutoff never changes the returned
	// solution: only strictly-worse subtrees are pruned (with a
	// tolerance margin), so an optimal point always survives, and a
	// cutoff that proves infeasible (a bad transfer) triggers a cold
	// re-solve without it inside the same Budget and node limit.
	Cutoff *float64
	// Session, when non-nil, reuses presolve reductions across solves of
	// structurally identical models (see Session).
	Session *Session
	// HotStart, when non-nil, carries a donor solve's final basis and
	// branching statistics (see HotStart). The basis hot-starts the
	// factored dual simplex instead of the crash basis; the pseudocosts
	// seed branching variable selection; and together with Cutoff the
	// root LP's reduced costs fix variables that provably cannot move in
	// any optimal solution. None of it changes the returned solution —
	// a basis that cannot be repaired to dual feasibility falls back to
	// the cold path.
	HotStart *HotStart
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 200000
	}
	if o.Tol <= 0 {
		o.Tol = defaultTol
	}
	if o.IntTol <= 0 {
		o.IntTol = 1e-6
	}
	if o.TraceEvery <= 0 {
		o.TraceEvery = 1000
	}
	return o
}

// Solution is the result of Solve or SolveLP.
type Solution struct {
	// Status classifies the outcome.
	Status Status
	// Objective is the objective value of X (valid for Optimal/Feasible).
	Objective float64
	// X holds the variable values indexed by Var.
	X []float64
	// Nodes is the number of branch & bound nodes processed (nodes whose
	// LP relaxation was solved; nodes pruned by bound before any LP work
	// are not counted).
	Nodes int
	// Branches is the number of branchings performed (nodes split into
	// floor/ceil children).
	Branches int
	// SimplexIters is the total simplex pivot count across all LP solves.
	SimplexIters int
	// Degraded marks an anytime result: the search stopped early (wall-
	// clock budget, context cancellation, node limit, or an injected
	// fault) before proving optimality. A degraded Feasible solution is
	// the best incumbent with Gap bounding how far from optimal it can
	// be; a degraded Aborted result carries no solution at all.
	Degraded bool
	// DegradedReason says why the search stopped early: "deadline",
	// "canceled", "node-limit" or "fault:solver-deadline". Empty when
	// Degraded is false.
	DegradedReason string
	// Gap is the relative optimality gap of a degraded Feasible solution:
	// (incumbent - best open bound) / max(1, |incumbent|), clamped to be
	// non-negative. Zero for proven-optimal results and for degraded
	// results with no incumbent.
	Gap float64
	// HotStart is the transferable solver state of this solve — final
	// simplex basis and accumulated pseudocosts — set on proven-optimal
	// results solved on the factored engine, for use as a neighbor's
	// Options.HotStart.
	HotStart *HotStart
}

// Value returns the solution value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }

// ctxErr reports the context's error, tolerating a nil context (treated
// as context.Background()).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// SolveLP solves the continuous relaxation of the model (integrality
// dropped). A context that is already done stops the solve with its
// error before any simplex work starts.
func SolveLP(ctx context.Context, m *Model, opt Options) (*Solution, error) {
	opt = opt.withDefaults()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	out := solveLP(m, m.lo, m.hi, opt.Tol)
	sol := &Solution{Status: out.status, Objective: out.obj, X: out.x, SimplexIters: out.iters}
	mSolves.Inc()
	mIters.Add(int64(out.iters))
	return sol, nil
}

// Solve optimizes the model exactly with branch & bound over its integer
// and binary variables, using LP-relaxation bounds. For a model without
// integer variables it is equivalent to SolveLP.
//
// The solve pipeline: a root presolve shrinks the model (presolve.go);
// node relaxations run on a factored bounded-variable revised dual
// simplex that warm-starts from the basis left by the previous node
// (factor.go), with the dense two-phase simplex as fallback; a root
// diving heuristic seeds the incumbent so pruning bites from the first
// node; the tree itself is explored best-bound-first with depth-first
// plunging.
//
// Solve is anytime: when ctx is canceled, its deadline passes, or
// opt.Budget expires, the search stops and returns the best incumbent
// (Status == Feasible, Degraded set, Gap reported) or, with no incumbent,
// Status == Aborted — never an error. Errors are reserved for invalid
// models.
func Solve(ctx context.Context, m *Model, opt Options) (*Solution, error) {
	opt = opt.withDefaults()
	if err := m.Validate(); err != nil {
		return nil, err
	}

	done := func(sol *Solution) (*Solution, error) {
		if opt.Trace != nil {
			deg := ""
			if sol.Degraded {
				deg = fmt.Sprintf(" degraded=%s gap=%.4g", sol.DegradedReason, sol.Gap)
			}
			fmt.Fprintf(opt.Trace, "ilp: done status=%v nodes=%d branches=%d iters=%d obj=%.6g%s\n",
				sol.Status, sol.Nodes, sol.Branches, sol.SimplexIters, sol.Objective, deg)
		}
		mSolves.Inc()
		mNodes.Add(int64(sol.Nodes))
		mIters.Add(int64(sol.SimplexIters))
		mBranches.Add(int64(sol.Branches))
		if sol.Degraded {
			mDegraded.Inc()
		}
		return sol, nil
	}

	if fault.Hit(fault.SolverDeadline) {
		// Injected fault: the budget "expired" before the first node, the
		// worst case of the anytime contract — no incumbent, caller must
		// fall back.
		return done(&Solution{Status: Aborted, Degraded: true, DegradedReason: "fault:solver-deadline"})
	}

	var pr *presolveResult
	work := m
	if !opt.DisablePresolve {
		if opt.Session != nil {
			pr = opt.Session.presolveFor(m, opt.Tol)
		} else {
			pr = presolve(m, opt.Tol)
		}
		mPreRows.Add(int64(pr.rowsDropped))
		mPreCols.Add(int64(pr.colsFixed + pr.colsSubst))
		switch pr.status {
		case Infeasible:
			return done(&Solution{Status: Infeasible})
		case Optimal:
			// Presolve eliminated every variable: the instance is solved
			// by replaying the reduction stack.
			x := pr.postsolve(nil, m.NumVars())
			return done(&Solution{Status: Optimal, X: x, Objective: Eval(m.obj, x)})
		}
		work = pr.reduced
	}

	var deadline time.Time
	if opt.Budget > 0 {
		deadline = time.Now().Add(opt.Budget)
	}
	s := &bbState{orig: m, w: work, pr: pr, opt: opt, ctx: ctx, deadline: deadline}
	if opt.Cutoff != nil {
		// Map the cutoff from the original objective space into w's
		// minimization space. Postsolve is affine, so the two spaces
		// differ by a constant offset; probe it at two points and keep
		// the cutoff only if they agree (they always should — the check
		// guards exactness against future presolve changes).
		signO, signW := 1.0, 1.0
		if m.sense == Maximize {
			signO = -1
		}
		if work.sense == Maximize {
			signW = -1
		}
		offsetAt := func(v float64) float64 {
			x := make([]float64, work.NumVars())
			for i := range x {
				x[i] = v
			}
			full := x
			if pr != nil {
				full = pr.postsolve(x, m.NumVars())
			}
			return signO*Eval(m.obj, full) - signW*Eval(work.obj, x)
		}
		off0 := offsetAt(0)
		if math.Abs(off0-offsetAt(1)) <= 1e-6*math.Max(1, math.Abs(off0)) {
			s.hasCutoff = true
			s.cutoffW = signO*(*opt.Cutoff) - off0
			s.cutMargin = 1e-6 * math.Max(1, math.Abs(s.cutoffW))
		}
	}
	s.run()
	spent := s.bbWork
	if s.hasCutoff && s.incumbent == nil && !s.unbounded && !s.hitLimit && s.stopReason == "" {
		// A transferred cutoff asserts that a feasible point exists; an
		// "infeasible" outcome can only mean the transfer was bad (donor
		// mismatch). Drop it and solve cold on the same presolved model —
		// correctness never depends on the cutoff being right. The retry
		// inherits what is left of the clock and the node limit, and the
		// rejected cutoff is not counted as a warm hit.
		s = &bbState{orig: m, w: work, pr: pr, opt: opt, ctx: ctx, deadline: deadline}
		s.opt.MaxNodes -= spent.nodes
		s.run()
		spent.add(s.bbWork)
	} else if s.hasCutoff {
		mWarmCellHits.Inc()
	}
	mPruned.Add(int64(spent.pruned))
	mWarm.Add(int64(spent.warm))
	mHeuristic.Add(int64(spent.heuristics))
	mRCFixed.Add(int64(spent.rcFixed))

	stopped := s.hitLimit || s.stopReason != ""
	reason := s.stopReason
	if reason == "" && s.hitLimit {
		reason = "node-limit"
	}

	sol := &Solution{Nodes: spent.nodes, Branches: spent.branches, SimplexIters: spent.iters}
	switch {
	case s.unbounded:
		// The relaxation is unbounded. With integer variables this still
		// certifies an unbounded or pathological model; report it rather
		// than guessing.
		sol.Status = Unbounded
		return done(sol)
	case s.incumbent != nil && !stopped:
		sol.Status = Optimal
	case s.incumbent != nil:
		sol.Status = Feasible
		sol.Degraded = true
		sol.DegradedReason = reason
		if lb := s.openBound; !math.IsInf(lb, 0) {
			gap := (s.incumbentVal - lb) / math.Max(1, math.Abs(s.incumbentVal))
			sol.Gap = math.Max(0, gap)
		}
	case stopped:
		sol.Status = Aborted
		sol.Degraded = true
		sol.DegradedReason = reason
	default:
		// Either no node was LP-feasible, or LP-feasible nodes existed but
		// none produced an integral point and the tree is exhausted:
		// infeasible either way.
		sol.Status = Infeasible
	}
	if s.eng != nil && sol.Status == Optimal {
		// Publish this solve's warm state for neighboring cells. Only
		// proven-optimal results donate: a degraded basis or pseudocost
		// table depends on where the clock cut the search.
		sol.HotStart = buildHotStart(s.eng, s.w, s.pr, m, s.pc)
	}
	if s.incumbent != nil {
		x := s.incumbent
		if pr != nil {
			x = pr.postsolve(x, m.NumVars())
		}
		sol.X = x
		sol.Objective = Eval(m.obj, x)
	}
	return done(sol)
}

// bbNode is one open branch & bound node: a box of variable bounds plus
// the parent relaxation bound used for best-bound ordering.
type bbNode struct {
	lo, hi []float64
	bound  float64 // parent LP objective, minimization space
	seq    int     // FIFO tie-break

	// Pseudocost bookkeeping: the branching that created this node
	// (pvar < 0 for the root), its fractional part at the parent, and
	// the branch direction. The gain of this node's LP bound over the
	// parent's is credited to pvar once, when the node LP solves.
	pvar  int
	pfrac float64
	pup   bool
}

// bbWork is the effort of a branch & bound run, reported in Solution
// and the solver counters.
type bbWork struct {
	nodes, branches, iters int
	pruned, warm           int
	heuristics, rcFixed    int
}

func (w *bbWork) add(o bbWork) {
	w.nodes += o.nodes
	w.branches += o.branches
	w.iters += o.iters
	w.pruned += o.pruned
	w.warm += o.warm
	w.heuristics += o.heuristics
	w.rcFixed += o.rcFixed
}

// bbState is the working state of one branch & bound run over the
// (possibly presolve-reduced) model w.
type bbState struct {
	orig *Model
	w    *Model
	pr   *presolveResult
	opt  Options

	sign    float64 // w's minimization-space sign
	eng     *fsx    // warm-started engine, nil => dense per-node solves
	intVars []int

	hasCutoff bool    // a transferred cutoff is installed
	cutoffW   float64 // cutoff in w's minimization space
	cutMargin float64 // tolerance margin: prune only strictly beyond it

	pc *pcTable // pseudocost store

	incumbent    []float64 // in w's variable space
	incumbentVal float64   // minimization space

	heap []bbNode // open nodes, min (bound, seq) at the top

	bbWork
	engSolves, seq                   int
	sawFeasible, hitLimit, unbounded bool

	ctx        context.Context
	deadline   time.Time // wall-clock stop from opt.Budget (zero = none)
	stopReason string    // "deadline" or "canceled" when the search was cut short
	openBound  float64   // best minimization-space bound still open at the stop
}

// stopCheck reports why the search must stop now ("deadline",
// "canceled"), or "" to keep going. It is called once per node, so its
// cost — a context poll and a clock read — is amortized over a full LP
// solve.
func (s *bbState) stopCheck() string {
	if err := ctxErr(s.ctx); err != nil {
		if err == context.DeadlineExceeded {
			return "deadline"
		}
		return "canceled"
	}
	if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
		return "deadline"
	}
	return ""
}

// recordOpenBound captures the tightest still-open relaxation bound at
// the moment the search stops; the optimality gap of the incumbent is
// measured against it.
func (s *bbState) recordOpenBound(cur *bbNode) {
	lb := math.Inf(1)
	if cur != nil && s.nodes > 0 {
		// cur's bound is its parent's LP objective — valid except for the
		// root node, whose bound field was never set.
		lb = cur.bound
	}
	if len(s.heap) > 0 && s.heap[0].bound < lb {
		lb = s.heap[0].bound
	}
	s.openBound = lb
}

func (s *bbState) run() {
	s.sign = 1
	if s.w.sense == Maximize {
		s.sign = -1
	}
	s.intVars = s.w.integerVars()
	s.incumbentVal = math.Inf(1)
	s.openBound = math.Inf(1)
	if !s.opt.DisableWarmStart {
		s.eng = newFSX(s.w, s.opt.Tol)
	}
	s.pc = newPCTable(s.w.NumVars())
	if hs := s.opt.HotStart; hs != nil {
		if s.pc.seed(hs.Pseudo, s.w) {
			mPseudoTransfer.Inc()
		}
		if hs.Basis != nil && s.eng != nil {
			// Hot-start the engine from the donor basis mapped through
			// shared column/row names. A mapping or repair failure leaves
			// the engine on its crash basis — the cold path — and goes
			// uncounted.
			if basic, atUpper, ok := mapHotBasis(hs.Basis, s.w, s.pr, s.orig); ok {
				if pivots, installed := s.eng.installBasis(basic, atUpper); installed {
					mBasisReuse.Inc()
					mBasisRepair.Add(int64(pivots))
				}
			}
		}
	}

	cur := &bbNode{
		lo:   append([]float64(nil), s.w.lo...),
		hi:   append([]float64(nil), s.w.hi...),
		pvar: -1,
	}
	for {
		if cur == nil {
			cur = s.nextNode()
			if cur == nil {
				return
			}
		}
		if reason := s.stopCheck(); reason != "" {
			s.stopReason = reason
			s.recordOpenBound(cur)
			return
		}
		if s.nodes >= s.opt.MaxNodes {
			s.hitLimit = true
			s.recordOpenBound(cur)
			return
		}
		cur = s.processNode(cur)
		if s.unbounded {
			return
		}
	}
}

// pruneable reports whether a minimization-space bound cannot improve on
// the incumbent, within a tolerance relative to the incumbent magnitude.
func (s *bbState) pruneable(bound float64) bool {
	if s.hasCutoff && bound > s.cutoffW+s.cutMargin {
		// The cutoff is a known-feasible value: a subtree strictly worse
		// than it cannot hold the optimum. Equal-or-better subtrees are
		// kept, so an optimal point always survives.
		return true
	}
	if s.incumbent == nil {
		return false
	}
	return bound >= s.incumbentVal-s.opt.Tol*math.Max(1, math.Abs(s.incumbentVal))
}

// solveNodeLP solves one node relaxation: warm-started dual simplex when
// the engine is available, dense two-phase simplex otherwise or when the
// engine aborts.
func (s *bbState) solveNodeLP(lo, hi []float64) (Status, []float64) {
	if e := s.eng; e != nil {
		e.setBounds(lo, hi)
		// Early-stop limit: the tighter of the transferred cutoff and the
		// incumbent-pruning threshold. An LP whose objective passes it can
		// only end in a pruned node.
		e.objLimit = math.Inf(1)
		if s.hasCutoff {
			e.objLimit = s.cutoffW + s.cutMargin
		}
		if s.incumbent != nil {
			if t := s.incumbentVal - s.opt.Tol*math.Max(1, math.Abs(s.incumbentVal)); t < e.objLimit {
				e.objLimit = t
			}
		}
		before := e.iters
		st := e.solve()
		s.iters += e.iters - before
		if s.engSolves > 0 {
			s.warm++
		}
		s.engSolves++
		if st != Aborted {
			if st == Optimal {
				return Optimal, e.values()
			}
			return st, nil
		}
		mFallback.Inc()
	}
	out := solveLP(s.w, lo, hi, s.opt.Tol)
	s.iters += out.iters
	return out.status, out.x
}

// feasibleIn verifies x against w's constraints and bounds with a
// tolerance scaled to each row's magnitude; used to screen incumbent
// candidates against numerical drift in the warm-started basis.
func feasibleIn(w *Model, x []float64) bool {
	for j := range x {
		if x[j] < w.lo[j]-1e-6 || x[j] > w.hi[j]+1e-6 {
			return false
		}
	}
	for _, c := range w.cons {
		v := Eval(c.Expr, x)
		tol := 1e-6 * math.Max(1, math.Abs(c.RHS))
		switch c.Rel {
		case LE:
			if v > c.RHS+tol {
				return false
			}
		case GE:
			if v < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(v-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// userObjective maps a w-space point to the original model's objective
// value (trace display only).
func (s *bbState) userObjective(x []float64) float64 {
	if s.pr != nil {
		return Eval(s.orig.obj, s.pr.postsolve(x, s.orig.NumVars()))
	}
	return Eval(s.orig.obj, x)
}

// tryIncumbent snaps x's integer values, verifies feasibility, and
// installs it as the incumbent when it improves. Reports whether x was
// accepted as feasible (improving or not).
func (s *bbState) tryIncumbent(x []float64, heuristic bool) bool {
	cand := append([]float64(nil), x...)
	for _, j := range s.intVars {
		cand[j] = math.Round(cand[j])
	}
	if !feasibleIn(s.w, cand) {
		return false
	}
	val := s.sign * Eval(s.w.obj, cand)
	if val < s.incumbentVal {
		s.incumbentVal = val
		s.incumbent = cand
		if heuristic {
			s.heuristics++
		}
		if s.opt.Trace != nil {
			tag := ""
			if heuristic {
				tag = "heuristic, "
			}
			fmt.Fprintf(s.opt.Trace, "ilp: incumbent %.6g at node %d (%siters=%d)\n",
				s.userObjective(cand), s.nodes, tag, s.iters)
		}
	}
	return true
}

// processNode solves one node and returns the child to plunge into, or
// nil when the node closed (pruned, infeasible, or integral).
func (s *bbState) processNode(nd *bbNode) *bbNode {
	s.nodes++
	if s.opt.Trace != nil && s.nodes%s.opt.TraceEvery == 0 {
		inc := "-"
		if s.incumbent != nil {
			inc = fmt.Sprintf("%.6g", s.userObjective(s.incumbent))
		}
		fmt.Fprintf(s.opt.Trace, "ilp: node=%d stack=%d branches=%d iters=%d incumbent=%s\n",
			s.nodes, len(s.heap), s.branches, s.iters, inc)
	}

	st, x := s.solveNodeLP(nd.lo, nd.hi)
	fromEngine := s.eng != nil
	for {
		switch st {
		case Infeasible, Aborted:
			return nil
		case stObjLimit:
			// The node LP's objective already passed the cutoff/incumbent
			// limit mid-solve; the finished bound could only be worse.
			s.pruned++
			return nil
		case Unbounded:
			s.unbounded = true
			return nil
		}
		bound := s.sign * Eval(s.w.obj, x)
		s.sawFeasible = true
		if nd.pvar >= 0 {
			// Credit the branching that created this node with the bound
			// gain its LP realized; cleared so the dense-fallback retry
			// below cannot double-count.
			s.pc.observe(nd.pvar, nd.pfrac, nd.pup, bound-nd.bound)
			nd.pvar = -1
		}
		if s.pruneable(bound) {
			s.pruned++
			return nil
		}
		if s.nodes == 1 && s.hasCutoff && fromEngine && st == Optimal {
			// Root reduced-cost fixing against the transferred cutoff,
			// while the engine still holds the root LP's reduced costs.
			s.fixByReducedCost(nd, bound)
		}

		// Branch variable: among fractional integer variables, the
		// highest branch-priority class, then the best pseudocost product
		// score — which, with no observations in the table, reduces
		// exactly to most fractional.
		// Priorities let formulations steer branching toward genuine
		// decision variables (CASA: the l's) instead of derived ones
		// (the linearization L's, which the l's imply).
		branchVar := -1
		bestPrio := math.MinInt
		bestScore := 0.0
		for _, j := range s.intVars {
			if math.Abs(x[j]-math.Round(x[j])) <= s.opt.IntTol {
				continue
			}
			p := s.w.prio[j]
			sc := s.pc.score(j, x[j]-math.Floor(x[j]))
			if p > bestPrio || (p == bestPrio && sc > bestScore) {
				bestPrio = p
				bestScore = sc
				branchVar = j
			}
		}
		if branchVar < 0 {
			if s.tryIncumbent(x, false) {
				return nil
			}
			if !fromEngine {
				// The dense simplex produced an infeasible "integral"
				// point; numerically hopeless, close the node.
				return nil
			}
			// Warm-basis drift produced an integral point that fails the
			// feasibility screen: re-solve this node from scratch.
			mFallback.Inc()
			out := solveLP(s.w, nd.lo, nd.hi, s.opt.Tol)
			s.iters += out.iters
			st, x, fromEngine = out.status, out.x, false
			continue
		}

		// Root diving heuristic: fix the most-integral fractional
		// variable and re-solve, walking the warm basis down to an
		// integral point that seeds the incumbent.
		if s.nodes == 1 && s.eng != nil && !s.opt.DisableHeuristic {
			s.dive(nd, x)
			if s.pruneable(bound) {
				// The heuristic already matches the root bound: optimal.
				s.pruned++
				return nil
			}
		}

		s.branches++
		v := x[branchVar]
		frac := v - math.Floor(v)
		floorNode := &bbNode{lo: append([]float64(nil), nd.lo...), hi: append([]float64(nil), nd.hi...), bound: bound,
			pvar: branchVar, pfrac: frac, pup: false}
		floorNode.hi[branchVar] = math.Floor(v)
		ceilNode := &bbNode{lo: append([]float64(nil), nd.lo...), hi: append([]float64(nil), nd.hi...), bound: bound,
			pvar: branchVar, pfrac: frac, pup: true}
		ceilNode.lo[branchVar] = math.Ceil(v)
		// Plunge into the side nearer the fractional value; the other
		// child joins the best-bound heap.
		near, far := ceilNode, floorNode
		if v-math.Floor(v) < 0.5 {
			near, far = floorNode, ceilNode
		}
		s.pushNode(far)
		return near
	}
}

// fixByReducedCost tightens the root box against a transferred cutoff:
// a nonbasic integer variable whose reduced cost says moving one unit
// off its bound already pushes the LP bound strictly past the
// known-feasible cutoff cannot move in ANY optimal solution (the
// bound+|d| value lower-bounds every feasible point with the variable
// shifted), so it is fixed at its resting bound. Children inherit the
// tightened box. Runs only while the engine still holds the root LP's
// basis.
func (s *bbState) fixByReducedCost(nd *bbNode, bound float64) {
	f := s.eng
	lim := s.cutoffW + s.cutMargin
	for _, j := range s.intVars {
		if nd.hi[j]-nd.lo[j] < 0.5 {
			continue // already fixed
		}
		d := f.reducedCost(j)
		switch f.status[j] {
		case nbLower:
			if d > 0 && bound+d > lim {
				nd.hi[j] = nd.lo[j]
				s.rcFixed++
			}
		case nbUpper:
			if d < 0 && bound-d > lim {
				nd.lo[j] = nd.hi[j]
				s.rcFixed++
			}
		}
	}
}

// dive runs the root incumbent heuristic: repeatedly fix the fractional
// integer variable closest to integrality at its rounded value and
// re-solve the (warm) relaxation; on infeasibility retry once at the
// opposite value. For a knapsack-shaped model the root LP already sorts
// variables by value density, so this walk lands on the greedy packing.
func (s *bbState) dive(nd *bbNode, rootX []float64) {
	lo := append([]float64(nil), nd.lo...)
	hi := append([]float64(nil), nd.hi...)
	x := rootX
	for step := 0; step < 2*len(s.intVars)+4; step++ {
		if s.stopCheck() != "" {
			// Out of budget mid-dive: the run loop will stop the search; do
			// not burn more LP solves on the heuristic.
			return
		}
		j, frac := -1, 2.0
		for _, iv := range s.intVars {
			f := math.Abs(x[iv] - math.Round(x[iv]))
			if f <= s.opt.IntTol {
				continue
			}
			if f < frac {
				frac, j = f, iv
			}
		}
		if j < 0 {
			s.tryIncumbent(x, true)
			return
		}
		v := math.Round(x[j])
		v = math.Max(nd.lo[j], math.Min(nd.hi[j], v))
		lo[j], hi[j] = v, v
		st, nx := s.solveNodeLP(lo, hi)
		if st != Optimal {
			alt := v + 1
			if v > x[j] {
				alt = v - 1
			}
			if alt < nd.lo[j] || alt > nd.hi[j] {
				return
			}
			lo[j], hi[j] = alt, alt
			st, nx = s.solveNodeLP(lo, hi)
			if st != Optimal {
				return
			}
		}
		x = nx
	}
}

// pushNode adds an open node to the best-bound heap.
func (s *bbState) pushNode(nd *bbNode) {
	nd.seq = s.seq
	s.seq++
	s.heap = append(s.heap, *nd)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(i, p) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *bbState) heapLess(a, b int) bool {
	if s.heap[a].bound != s.heap[b].bound {
		return s.heap[a].bound < s.heap[b].bound
	}
	return s.heap[a].seq < s.heap[b].seq
}

// nextNode pops the best-bound open node, discarding the whole frontier
// when even the best bound cannot beat the incumbent.
func (s *bbState) nextNode() *bbNode {
	if len(s.heap) == 0 {
		return nil
	}
	if s.pruneable(s.heap[0].bound) {
		// The heap minimum is already dominated; so is everything else.
		s.pruned += len(s.heap)
		s.heap = s.heap[:0]
		return nil
	}
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(s.heap) && s.heapLess(l, best) {
			best = l
		}
		if r < len(s.heap) && s.heapLess(r, best) {
			best = r
		}
		if best == i {
			break
		}
		s.heap[i], s.heap[best] = s.heap[best], s.heap[i]
		i = best
	}
	return &top
}

// SolveBruteForce exhaustively enumerates all assignments of the model's
// binary variables (continuous variables are not supported) and returns
// the best feasible assignment. It exists to validate the branch & bound
// solver in tests and refuses models beyond 24 binaries. Cancellation of
// ctx aborts the enumeration with the context's error.
func SolveBruteForce(ctx context.Context, m *Model) (*Solution, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var bins []int
	for i, k := range m.kinds {
		switch k {
		case Binary:
			if m.lo[i] == m.hi[i] {
				continue // pinned; the init loop sets x[i] = lo
			}
			bins = append(bins, i)
		case Integer, Continuous:
			if m.lo[i] == m.hi[i] {
				continue // fixed is fine
			}
			if k == Integer && m.lo[i] >= 0 && m.hi[i] <= 1 {
				bins = append(bins, i)
				continue
			}
			return nil, fmt.Errorf("ilp: brute force supports binary variables only; %s is %s",
				m.names[i], k)
		}
	}
	if len(bins) > 24 {
		return nil, fmt.Errorf("ilp: brute force supports at most 24 binaries, model has %d", len(bins))
	}
	sign := 1.0
	if m.sense == Maximize {
		sign = -1
	}
	x := make([]float64, m.NumVars())
	for i := range x {
		x[i] = m.lo[i]
	}
	best := math.Inf(1)
	var bestX []float64
	for mask := 0; mask < 1<<len(bins); mask++ {
		if mask&0xfff == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		for bi, j := range bins {
			if mask&(1<<bi) != 0 {
				x[j] = 1
			} else {
				x[j] = 0
			}
		}
		ok := true
		for _, c := range m.cons {
			v := Eval(c.Expr, x)
			switch c.Rel {
			case LE:
				ok = v <= c.RHS+feasTol
			case GE:
				ok = v >= c.RHS-feasTol
			case EQ:
				ok = math.Abs(v-c.RHS) <= feasTol
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		val := sign * Eval(m.obj, x)
		if val < best {
			best = val
			bestX = append([]float64(nil), x...)
		}
	}
	if bestX == nil {
		return &Solution{Status: Infeasible}, nil
	}
	return &Solution{Status: Optimal, Objective: Eval(m.obj, bestX), X: bestX}, nil
}
