package ilp

import (
	"context"
	"math"
	"testing"

	"repro/internal/obs"
)

// engineObjective is the original-sense objective of the engine's
// current point.
func engineObjective(m *Model, e *fsx) float64 { return Eval(m.obj, e.values()) }

// TestNodeLPAbortFallsBackToDense drives the engine past its pivot cap:
// solveNodeLP must answer the node from the dense two-phase simplex,
// count the fallback, and charge both solves' iterations.
func TestNodeLPAbortFallsBackToDense(t *testing.T) {
	m := knapModel(12, 17)
	s := &bbState{orig: m, w: m, opt: Options{}.withDefaults(), eng: newFSX(m, 0)}
	s.eng.maxIter = 0 // one pivot, then Aborted

	fallbacks := obs.GetCounter("casa_ilp_dense_fallbacks_total")
	before := fallbacks.Value()
	st, x := s.solveNodeLP(m.lo, m.hi)
	if got := fallbacks.Value() - before; got != 1 {
		t.Fatalf("dense fallbacks %+d, want +1", got)
	}
	want := solveLP(m, m.lo, m.hi, 0)
	if st != want.status || !almostEq(Eval(m.obj, x), want.obj) {
		t.Fatalf("node LP %v/%g, want dense %v/%g", st, Eval(m.obj, x), want.status, want.obj)
	}
	if s.iters != s.eng.iters+want.iters {
		t.Fatalf("iters %d, want engine %d + dense %d", s.iters, s.eng.iters, want.iters)
	}
}

// TestEngineSolveRepairsDualInfeasibility covers solve's entry repair:
// a nonbasic column whose reduced cost has the wrong sign and whose
// opposite bound is infinite cannot be bound-flipped, so the engine
// restarts from the crash basis — or reports Aborted when the current
// bounds admit no crash basis either. Such reduced costs arise when a
// branching fixing is relaxed on a jump across the tree; the test sets
// them directly.
func TestEngineSolveRepairsDualInfeasibility(t *testing.T) {
	inf := math.Inf(1)
	// atLower: x, y ≥ 0 unbounded above, w ∈ [0, 1] at zero cost;
	// min x + y s.t. x + y + w ≥ 2.
	atLower := NewModel()
	x := atLower.AddContinuous("x", 0, inf)
	y := atLower.AddContinuous("y", 0, inf)
	w := atLower.AddContinuous("w", 0, 1)
	atLower.AddConstraint("", LinExpr{}.Add(1, x).Add(1, y).Add(1, w), GE, 2)
	atLower.SetObjective(LinExpr{}.Add(1, x).Add(1, y), Minimize)
	// atUpper: x ≤ 4 unbounded below (resting at its upper bound), y ≥ 0,
	// z ≤ 5 unbounded below at zero cost; min −x + y s.t. x − y ≤ 1,
	// z + y ≥ −10.
	atUpper := NewModel()
	x = atUpper.AddContinuous("x", -inf, 4)
	y = atUpper.AddContinuous("y", 0, inf)
	z := atUpper.AddContinuous("z", -inf, 5)
	atUpper.AddConstraint("", LinExpr{}.Add(1, x).Add(-1, y), LE, 1)
	atUpper.AddConstraint("", LinExpr{}.Add(1, z).Add(1, y), GE, -10)
	atUpper.SetObjective(LinExpr{}.Add(-1, x).Add(1, y), Minimize)

	for _, tc := range []struct {
		name  string
		m     *Model
		wrong float64 // reduced cost forced onto column 0
	}{
		{"nonbasic at lower, no upper bound", atLower, -1},
		{"nonbasic at upper, no lower bound", atUpper, 1},
	} {
		e := newFSX(tc.m, 0)
		if e == nil {
			t.Fatalf("%s: newFSX rejected the model", tc.name)
		}
		e.d[0] = tc.wrong
		if st := e.solve(); st != Optimal {
			t.Fatalf("%s: status %v, want optimal", tc.name, st)
		}
		want := solveLP(tc.m, tc.m.lo, tc.m.hi, 0)
		if got := engineObjective(tc.m, e); !almostEq(got, want.obj) {
			t.Fatalf("%s: objective %g, want %g", tc.name, got, want.obj)
		}

		// Column 1 (y, costed) loses its lower bound: no crash basis.
		e = newFSX(tc.m, 0)
		lo := append([]float64(nil), tc.m.lo...)
		lo[1] = -inf
		e.setBounds(lo, tc.m.hi)
		e.d[0] = tc.wrong
		if st := e.solve(); st != Aborted {
			t.Fatalf("%s without a crash basis: status %v, want aborted", tc.name, st)
		}
	}
}

// TestRefreshSingularFallsBackToReset installs a singular basis (two
// identical columns): refresh must recover through the crash basis, on
// which the engine still reaches the LP optimum, and must report
// failure when the bounds admit no crash basis.
func TestRefreshSingularFallsBackToReset(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, math.Inf(1))
	y := m.AddContinuous("y", 0, math.Inf(1))
	sum := LinExpr{}.Add(1, x).Add(1, y)
	m.AddConstraint("", sum, LE, 4)
	m.AddConstraint("", sum, GE, 1)
	m.SetObjective(LinExpr{}.Add(1, x).Add(2, y), Minimize)

	singular := func(e *fsx) {
		e.basis[0], e.basis[1] = 0, 1
		e.status[0], e.status[1] = inBasis, inBasis
		e.status[2], e.status[3] = nbLower, nbUpper // LE and GE slacks at 0
	}
	e := newFSX(m, 0)
	singular(e)
	if !e.refresh() {
		t.Fatal("refresh failed although the crash basis exists")
	}
	if e.basis[0] != 2 || e.basis[1] != 3 {
		t.Fatalf("basis after recovery %v, want the slack basis [2 3]", e.basis)
	}
	if st := e.solve(); st != Optimal || !almostEq(engineObjective(m, e), 1) {
		t.Fatalf("after recovery: %v/%g, want optimal/1", st, engineObjective(m, e))
	}

	e = newFSX(m, 0)
	e.setBounds([]float64{math.Inf(-1), 0}, m.hi)
	singular(e)
	if e.refresh() {
		t.Fatal("refresh succeeded with neither a factorable basis nor a crash basis")
	}
}

// TestInstallBasisUnrepairable proposes a basis whose dual repair needs
// more pivots than installBasis allows: one row, and columns whose
// cost/coefficient ratios make every repair pivot expose the next
// wrong-priced column. The install must give up, leave the engine on
// its crash basis, and the engine must still solve the LP.
func TestInstallBasisUnrepairable(t *testing.T) {
	const n = 18 // repair chain of n pivots; the 1-row budget is 16
	m := NewModel()
	row, obj := LinExpr{}, LinExpr{}
	for j := 1; j <= n; j++ {
		v := m.AddContinuous("", 0, math.Inf(1))
		a := math.Pow(3, float64(j))
		row = row.Add(a, v)
		obj = obj.Add(float64(j)*a, v)
	}
	m.AddConstraint("", row, LE, 100)
	m.SetObjective(obj, Minimize)

	e := newFSX(m, 0)
	pivots, ok := e.installBasis([]int{n - 1}, make([]bool, n))
	if ok {
		t.Fatalf("install of an unrepairable basis succeeded after %d pivots", pivots)
	}
	if budget := e.m/4 + 16; pivots != budget {
		t.Fatalf("install gave up after %d repair pivots, want the budget %d", pivots, budget)
	}
	if e.basis[0] != n {
		t.Fatalf("basis after failed install %v, want the slack basis [%d]", e.basis, n)
	}
	if st := e.solve(); st != Optimal || !almostEq(engineObjective(m, e), 0) {
		t.Fatalf("after failed install: %v/%g, want optimal/0", st, engineObjective(m, e))
	}
}

// TestRejectedModelsSolveOnDenseNodes covers models the engine cannot
// crash-place — a column the objective pulls toward an infinite bound,
// or a free column — which must solve exactly on dense per-node LPs
// (and so publish no hot start).
func TestRejectedModelsSolveOnDenseNodes(t *testing.T) {
	inf := math.Inf(1)
	pulledDown := NewModel() // min x s.t. 2x ≥ 3, x free integer
	x := pulledDown.AddVar("x", Integer, -inf, inf)
	pulledDown.AddConstraint("", LinExpr{}.Add(2, x), GE, 3)
	pulledDown.SetObjective(LinExpr{}.Add(1, x), Minimize)

	pulledUp := NewModel() // max x s.t. 2x ≤ 7, x ≥ 0 integer
	x = pulledUp.AddVar("x", Integer, 0, inf)
	pulledUp.AddConstraint("", LinExpr{}.Add(2, x), LE, 7)
	pulledUp.SetObjective(LinExpr{}.Add(1, x), Maximize)

	free := NewModel() // min y s.t. y − x ≥ 0.5, x + y ≥ 2.5, x free at zero cost
	x = free.AddVar("x", Integer, -inf, inf)
	y := free.AddVar("y", Integer, 0, 10)
	free.AddConstraint("", LinExpr{}.Add(1, y).Add(-1, x), GE, 0.5)
	free.AddConstraint("", LinExpr{}.Add(1, x).Add(1, y), GE, 2.5)
	free.SetObjective(LinExpr{}.Add(1, y), Minimize)

	for _, tc := range []struct {
		name string
		m    *Model
		want float64
	}{
		{"pulled to -inf", pulledDown, 2},
		{"pulled to +inf", pulledUp, 3},
		{"free", free, 2},
	} {
		if newFSX(tc.m, 0) != nil {
			t.Fatalf("%s: newFSX accepted the model", tc.name)
		}
		sol, err := Solve(context.Background(), tc.m, Options{DisablePresolve: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sol.Status != Optimal || !almostEq(sol.Objective, tc.want) {
			t.Fatalf("%s: %v/%g, want optimal/%g", tc.name, sol.Status, sol.Objective, tc.want)
		}
		if sol.HotStart != nil {
			t.Fatalf("%s: dense-node solve published a hot start", tc.name)
		}
	}
}
