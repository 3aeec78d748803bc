package ilp

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// xorshift for deterministic random instances.
type testRNG uint64

func (r *testRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = testRNG(x)
	return x
}

func (r *testRNG) fl(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(r.next()%10000)/10000
}

// randBinaryModel builds a small random binary program.
func randBinaryModel(r *testRNG) *Model {
	n := 3 + int(r.next()%6)
	nc := 1 + int(r.next()%4)
	m := NewModel()
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = m.AddBinary("")
	}
	obj := LinExpr{}
	for _, v := range vars {
		obj = obj.Add(r.fl(-10, 10), v)
	}
	sense := Minimize
	if r.next()%2 == 0 {
		sense = Maximize
	}
	m.SetObjective(obj, sense)
	for c := 0; c < nc; c++ {
		e := LinExpr{}
		for _, v := range vars {
			e = e.Add(r.fl(0, 5), v)
		}
		rel := []Rel{LE, GE}[r.next()%2]
		m.AddConstraint("", e, rel, r.fl(1, float64(n)*2.5))
	}
	return m
}

// TestEngineParityRandomized cross-validates the factored node engine
// against dense per-node solves (DisableWarmStart) and, on models small
// enough to enumerate, against brute force.
func TestEngineParityRandomized(t *testing.T) {
	rng := testRNG(987654321)
	for trial := 0; trial < 80; trial++ {
		m := randBinaryModel(&rng)
		eng, err := Solve(context.Background(), m, Options{})
		if err != nil {
			t.Fatalf("trial %d engine: %v", trial, err)
		}
		dense, err := Solve(context.Background(), m, Options{DisableWarmStart: true})
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		refs := map[string]*Solution{"dense": dense}
		if len(m.integerVars()) <= 24 {
			bf, err := SolveBruteForce(context.Background(), m)
			if err != nil {
				t.Fatalf("trial %d brute force: %v", trial, err)
			}
			refs["brute-force"] = bf
		}
		for name, ref := range refs {
			if eng.Status != ref.Status {
				t.Fatalf("trial %d: status %v (fsx) vs %v (%s)", trial, eng.Status, ref.Status, name)
			}
			if ref.Status == Optimal && !almostEq(eng.Objective, ref.Objective) {
				t.Fatalf("trial %d: obj %g (fsx) vs %g (%s)", trial, eng.Objective, ref.Objective, name)
			}
		}
	}
}

// TestCutoffExactness checks that a transferred cutoff — at the optimum,
// above it, or wrongly below it — never changes the returned objective.
func TestCutoffExactness(t *testing.T) {
	rng := testRNG(24680)
	for trial := 0; trial < 60; trial++ {
		m := randBinaryModel(&rng)
		base, err := Solve(context.Background(), m, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if base.Status != Optimal {
			continue
		}
		slack := 1.0
		if m.sense == Maximize {
			slack = -1
		}
		for name, cut := range map[string]float64{
			"exact":     base.Objective,
			"loose":     base.Objective + slack, // worse than optimal: weak cutoff
			"too-tight": base.Objective - slack, // asserts a better point than exists
		} {
			cut := cut
			got, err := Solve(context.Background(), m, Options{Cutoff: &cut})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if got.Status != Optimal {
				t.Fatalf("trial %d cutoff=%s: status %v, want optimal", trial, name, got.Status)
			}
			if !almostEq(got.Objective, base.Objective) {
				t.Fatalf("trial %d cutoff=%s: obj %g, want %g", trial, name, got.Objective, base.Objective)
			}
		}
	}
}

// casaLikeModel builds a knapsack with the named capacity row, the shape
// the Session's RHS patching is designed for.
func casaLikeModel(nItems int, capRHS float64) *Model {
	m := NewModel()
	capRow := LinExpr{}
	obj := LinExpr{}
	for i := 0; i < nItems; i++ {
		v := m.AddBinary(fmt.Sprintf("l_%d", i))
		size := float64(1 + (i*7)%5)
		gain := float64(2 + (i*13)%9)
		capRow = capRow.Add(size, v)
		obj = obj.Add(-gain, v)
		// A side constraint so presolve keeps a multi-row structure.
		if i > 0 {
			e := LinExpr{}
			e = e.Add(1, v)
			e = e.Add(1, Var(i-1))
			m.AddConstraint("", e, LE, 2)
		}
	}
	m.AddConstraint("spm_capacity", capRow, LE, capRHS)
	m.SetObjective(obj, Minimize)
	return m
}

// TestSessionPresolveReuse checks the cache: an identical model shares
// the reduction, a smaller capacity patches it, and both yield the same
// optimum as session-less solves.
func TestSessionPresolveReuse(t *testing.T) {
	reuse := obs.GetCounter("casa_presolve_reuse_total")
	start := reuse.Value() // other tests share the global counter

	sess := NewSession()
	for _, capRHS := range []float64{30, 30, 24, 17, 9} {
		m := casaLikeModel(12, capRHS)
		want, err := Solve(context.Background(), m, Options{})
		if err != nil {
			t.Fatalf("cap=%g cold: %v", capRHS, err)
		}
		before := reuse.Value()
		got, err := Solve(context.Background(), m, Options{Session: sess})
		if err != nil {
			t.Fatalf("cap=%g session: %v", capRHS, err)
		}
		if got.Status != want.Status || !almostEq(got.Objective, want.Objective) {
			t.Fatalf("cap=%g: session solve %v/%g, want %v/%g",
				capRHS, got.Status, got.Objective, want.Status, want.Objective)
		}
		if after := reuse.Value(); capRHS != 30 || before > start {
			// Every call after the first must hit the cache (same structure;
			// equal or shrinking capacity).
			if before == start {
				continue // first call of the loop primed the cache
			}
			if after != before+1 {
				t.Fatalf("cap=%g: reuse counter %d -> %d, want +1", capRHS, before, after)
			}
		}
	}

	// A growing capacity must NOT reuse the shrunk entry via patching.
	grown := casaLikeModel(12, 60)
	want, _ := Solve(context.Background(), grown, Options{})
	got, err := Solve(context.Background(), grown, Options{Session: sess})
	if err != nil {
		t.Fatalf("grown: %v", err)
	}
	if !almostEq(got.Objective, want.Objective) {
		t.Fatalf("grown: session obj %g, want %g", got.Objective, want.Objective)
	}
}

// TestSessionSharedConcurrently hammers one Session from many
// goroutines; correctness is checked per solve and the race detector
// covers the cache.
func TestSessionSharedConcurrently(t *testing.T) {
	sess := NewSession()
	caps := []float64{30, 28, 24, 20, 17, 12, 9}
	wants := make([]float64, len(caps))
	for i, c := range caps {
		sol, err := Solve(context.Background(), casaLikeModel(12, c), Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("cap=%g: %v / %v", c, err, sol.Status)
		}
		wants[i] = sol.Objective
	}
	errc := make(chan error, 4*len(caps))
	for g := 0; g < 4; g++ {
		go func() {
			for i, c := range caps {
				sol, err := Solve(context.Background(), casaLikeModel(12, c), Options{Session: sess})
				if err != nil {
					errc <- err
					continue
				}
				if sol.Status != Optimal || !almostEq(sol.Objective, wants[i]) {
					errc <- fmt.Errorf("cap=%g: got %v/%g want optimal/%g", c, sol.Status, sol.Objective, wants[i])
					continue
				}
				errc <- nil
			}
		}()
	}
	for i := 0; i < 4*len(caps); i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmCellHitCounter checks the hit counter fires exactly once for
// a solve that keeps a supplied cutoff.
func TestWarmCellHitCounter(t *testing.T) {
	hits := obs.GetCounter("casa_ilp_warm_cell_hits_total")
	m := casaLikeModel(8, 15)
	base, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut := base.Objective

	before := hits.Value()
	if _, err := Solve(context.Background(), m, Options{Cutoff: &cut}); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != before+1 {
		t.Fatalf("warm hits %d -> %d, want +1", before, hits.Value())
	}
}

// solveDeltas solves m and reports how far each solver counter moved.
func solveDeltas(t *testing.T, m *Model, opt Options) (*Solution, map[string]int64) {
	t.Helper()
	names := []string{"casa_ilp_solves_total", "casa_ilp_nodes_total", "casa_ilp_simplex_iters_total",
		"casa_ilp_branches_total", "casa_ilp_nodes_pruned_total", "casa_ilp_warm_cell_hits_total"}
	before := make(map[string]int64, len(names))
	for _, n := range names {
		before[n] = obs.GetCounter(n).Value()
	}
	sol, err := Solve(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	d := make(map[string]int64, len(names))
	for _, n := range names {
		d[n] = obs.GetCounter(n).Value() - before[n]
	}
	return sol, d
}

// TestBadCutoffRetryAccounting pins the bookkeeping of the re-solve a
// too-tight transferred cutoff triggers: the rejected cutoff is no warm
// hit, the failed attempt's nodes, iterations and prunes count in both
// the Solution and the counters, and the retry only gets what is left
// of the node limit.
func TestBadCutoffRetryAccounting(t *testing.T) {
	rng := testRNG(24680)
	retried := 0
	for trial := 0; trial < 60; trial++ {
		m := randBinaryModel(&rng)
		cold, coldD := solveDeltas(t, m, Options{})
		if cold.Status != Optimal {
			continue
		}
		slack := 1.0
		if m.sense == Maximize {
			slack = -1
		}
		cut := cold.Objective - slack
		got, d := solveDeltas(t, m, Options{Cutoff: &cut})
		if got.Status != Optimal || !almostEq(got.Objective, cold.Objective) {
			t.Fatalf("trial %d: %v/%g, want optimal/%g", trial, got.Status, got.Objective, cold.Objective)
		}
		if d["casa_ilp_warm_cell_hits_total"] != 0 || d["casa_ilp_solves_total"] != 1 {
			t.Fatalf("trial %d: warm hits %+d, solves %+d; want +0, +1", trial,
				d["casa_ilp_warm_cell_hits_total"], d["casa_ilp_solves_total"])
		}
		if d["casa_ilp_nodes_total"] != int64(got.Nodes) || d["casa_ilp_simplex_iters_total"] != int64(got.SimplexIters) ||
			d["casa_ilp_branches_total"] != int64(got.Branches) {
			t.Fatalf("trial %d: counters %v disagree with solution nodes=%d iters=%d branches=%d",
				trial, d, got.Nodes, got.SimplexIters, got.Branches)
		}
		if got.Nodes < cold.Nodes || got.SimplexIters < cold.SimplexIters ||
			d["casa_ilp_nodes_pruned_total"] < coldD["casa_ilp_nodes_pruned_total"] {
			t.Fatalf("trial %d: retry reported less work than a cold solve: %v vs %v", trial, d, coldD)
		}
		first := got.Nodes - cold.Nodes
		if first == 0 {
			continue // presolve settled the model; no cutoff was installed
		}
		retried++
		// The retry replays the cold tree, so one node short of both
		// attempts' total must stop it at the node limit.
		lim, err := Solve(context.Background(), m, Options{Cutoff: &cut, MaxNodes: first + cold.Nodes - 1})
		if err != nil {
			t.Fatal(err)
		}
		if lim.Status == Optimal || lim.DegradedReason != "node-limit" || lim.Nodes != first+cold.Nodes-1 {
			t.Fatalf("trial %d: node limit %d gave %v (%q) after %d nodes; want node-limit stop",
				trial, first+cold.Nodes-1, lim.Status, lim.DegradedReason, lim.Nodes)
		}
	}
	if retried == 0 {
		t.Fatal("no trial exercised the bad-cutoff retry")
	}
}
