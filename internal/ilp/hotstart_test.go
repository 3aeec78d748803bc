package ilp

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
)

// knapModel builds a deterministic named binary knapsack with a
// "spm_capacity" row — the same structural shape (named binaries, one
// patchable capacity row) the CASA models have.
func knapModel(n int, cap float64) *Model {
	m := NewModel()
	e := LinExpr{}
	obj := LinExpr{}
	for i := 0; i < n; i++ {
		v := m.AddBinary(fmt.Sprintf("l_%d", i))
		e = e.Add(float64(1+i%7), v)
		obj = obj.Add(float64(3+(i*5)%11), v)
	}
	m.AddConstraint("spm_capacity", e, LE, cap)
	m.SetObjective(obj, Maximize)
	return m
}

// TestInstallBasisRoundTrip snapshots a solved engine's basis and
// reinstalls it on a fresh engine for the same model: the donor basis
// is already optimal, so the install must succeed without any dual
// repair pivots and the re-solve must terminate on the same objective
// almost immediately.
func TestInstallBasisRoundTrip(t *testing.T) {
	m := knapModel(12, 17)
	f := newFSX(m, 0)
	if f == nil {
		t.Fatal("newFSX returned nil")
	}
	if st := f.solve(); st != Optimal {
		t.Fatalf("cold solve: %v", st)
	}
	coldIters := f.iters
	snap := buildHotStart(f, m, nil, m, nil)

	g := newFSX(m, 0)
	basic, atUpper, ok := mapHotBasis(snap.Basis, m, nil, m)
	if !ok {
		t.Fatal("mapHotBasis failed on an identical model")
	}
	pivots, installed := g.installBasis(basic, atUpper)
	if !installed {
		t.Fatal("installBasis failed on an identical model")
	}
	if pivots != 0 {
		t.Errorf("round-trip install needed %d repair pivots, want 0", pivots)
	}
	if st := g.solve(); st != Optimal {
		t.Fatalf("hot solve: %v", st)
	}
	if g.iters > coldIters {
		t.Errorf("hot solve took %d iters, cold took %d — basis not reused", g.iters, coldIters)
	}
}

// TestHotStartRHSOnlyTransfer pins the soundness core of basis
// transfer: reduced costs are independent of the right-hand side, so a
// donor's optimal basis is exactly dual feasible for a sibling model
// differing only in the capacity RHS — the install must be counted with
// zero repair pivots, and the answer must equal the cold solve's.
func TestHotStartRHSOnlyTransfer(t *testing.T) {
	opt := Options{DisablePresolve: true}
	donor, err := Solve(context.Background(), knapModel(14, 23), opt)
	if err != nil || donor.Status != Optimal {
		t.Fatalf("donor solve: %v %v", err, donor.Status)
	}
	if donor.HotStart == nil || donor.HotStart.Basis == nil {
		t.Fatal("donor solve exported no hot start")
	}

	recipient := knapModel(14, 16)
	cold, err := Solve(context.Background(), recipient, opt)
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold recipient solve: %v %v", err, cold.Status)
	}

	reuse := obs.GetCounter("casa_ilp_basis_reuse_total")
	repair := obs.GetCounter("casa_ilp_basis_repair_pivots_total")
	reuseBase, repairBase := reuse.Value(), repair.Value()
	hotOpt := opt
	hotOpt.HotStart = donor.HotStart
	hot, err := Solve(context.Background(), recipient, hotOpt)
	if err != nil || hot.Status != Optimal {
		t.Fatalf("hot recipient solve: %v %v", err, hot.Status)
	}
	if got := reuse.Value(); got != reuseBase+1 {
		t.Errorf("basis reuse counter = %d, want %d", got, reuseBase+1)
	}
	if got := repair.Value(); got != repairBase {
		t.Errorf("RHS-only transfer needed %d repair pivots, want 0", got-repairBase)
	}
	if hot.Objective != cold.Objective {
		t.Errorf("hot objective %v != cold %v", hot.Objective, cold.Objective)
	}
}

// TestHotStartCrossModelExactness transfers hot starts between random
// models that share only some variable names (and between entirely
// unrelated ones): whatever the donor, the recipient's answer must be
// bitwise identical to its cold solve. This is the no-wrong-answers
// property the planner relies on when neighboring cells' conflict
// graphs differ.
func TestHotStartCrossModelExactness(t *testing.T) {
	rng := testRNG(0xC0FFEE)
	for trial := 0; trial < 60; trial++ {
		donorModel := randBinaryModel(&rng)
		recModel := randBinaryModel(&rng)
		donor, err := Solve(context.Background(), donorModel, Options{})
		if err != nil {
			t.Fatalf("trial %d donor: %v", trial, err)
		}
		if donor.HotStart == nil {
			continue // infeasible/unbounded donors export nothing
		}
		cold, err := Solve(context.Background(), recModel, Options{})
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		hot, err := Solve(context.Background(), recModel, Options{HotStart: donor.HotStart})
		if err != nil {
			t.Fatalf("trial %d hot: %v", trial, err)
		}
		if hot.Status != cold.Status || (cold.Status == Optimal && hot.Objective != cold.Objective) {
			t.Errorf("trial %d: hot (%v, %v) diverged from cold (%v, %v)",
				trial, hot.Status, hot.Objective, cold.Status, cold.Objective)
		}
	}
}

// TestGrownRHSRejectCounted pins the session patching rule: a capacity
// RHS smaller than the cached one patches, a GROWN one is rejected
// (counted) and solved via a fresh presolve — and both still give the
// same answers as sessionless solves.
func TestGrownRHSRejectCounted(t *testing.T) {
	grown := obs.GetCounter("casa_ilp_rhs_grown_rejects_total")
	reused := obs.GetCounter("casa_presolve_reuse_total")
	s := NewSession()
	caps := []float64{20, 14, 27, 9}
	for i, c := range caps {
		m := knapModel(10, c)
		grownBase, reusedBase := grown.Value(), reused.Value()
		got, err := Solve(context.Background(), m, Options{Session: s})
		if err != nil || got.Status != Optimal {
			t.Fatalf("cap %v: %v %v", c, err, got.Status)
		}
		want, err := Solve(context.Background(), knapModel(10, c), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Objective != want.Objective {
			t.Errorf("cap %v: session objective %v != sessionless %v", c, got.Objective, want.Objective)
		}
		switch i {
		case 0: // first sight: fresh presolve, no counters
			if grown.Value() != grownBase || reused.Value() != reusedBase {
				t.Errorf("cap %v: counters moved on first sight", c)
			}
		case 1: // shrunk: patched reuse
			if reused.Value() != reusedBase+1 {
				t.Errorf("cap %v: shrunk RHS not reused (%d, want %d)", c, reused.Value(), reusedBase+1)
			}
			if grown.Value() != grownBase {
				t.Errorf("cap %v: shrunk RHS counted as grown", c)
			}
		case 2: // grown past the cached 14: explicit reject
			if grown.Value() != grownBase+1 {
				t.Errorf("cap %v: grown RHS not counted (%d, want %d)", c, grown.Value(), grownBase+1)
			}
			if reused.Value() != reusedBase {
				t.Errorf("cap %v: grown RHS reused a stale reduction", c)
			}
		case 3: // shrunk again, against the refreshed cap-27 entry
			if reused.Value() != reusedBase+1 {
				t.Errorf("cap %v: re-shrunk RHS not reused", c)
			}
		}
	}
}

// TestPseudocostEmptyTableIsMostFractional proves the degeneration
// claim in pcTable.score's contract: with no observations, the product
// rule ranks fractional variables exactly like the most-fractional
// rule (distance to the nearest integer, first index on
// ties), so seeding nothing changes nothing.
func TestPseudocostEmptyTableIsMostFractional(t *testing.T) {
	rng := testRNG(31337)
	for trial := 0; trial < 200; trial++ {
		n := 2 + int(rng.next()%8)
		pc := newPCTable(n)
		fracs := make([]float64, n)
		for j := range fracs {
			fracs[j] = rng.fl(0.01, 0.99)
		}
		mostFrac, worst := -1, 0.0
		for j, f := range fracs {
			if d := math.Min(f, 1-f); d > worst {
				mostFrac, worst = j, d
			}
		}
		pcBest, pcScore := -1, 0.0
		for j, f := range fracs {
			if sc := pc.score(j, f); sc > pcScore {
				pcBest, pcScore = j, sc
			}
		}
		if mostFrac != pcBest {
			t.Fatalf("trial %d: empty-table pseudocost picked %d, most-fractional picked %d (fracs %v)",
				trial, pcBest, mostFrac, fracs)
		}
	}
}

// TestAnalyzeBasis sanity-checks the cmd/dump inspection entry point:
// partition counts must add up and the basic structural list must match
// the partition.
func TestAnalyzeBasis(t *testing.T) {
	m := knapModel(12, 17)
	info, err := AnalyzeBasis(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != Optimal {
		t.Fatalf("status %v", info.Status)
	}
	if info.Vars != 12 || info.Rows != 1 {
		t.Errorf("dims %dx%d, want 12x1", info.Vars, info.Rows)
	}
	if info.BasicStructural+info.BasicSlacks != info.Rows {
		t.Errorf("partition %d+%d != rows %d", info.BasicStructural, info.BasicSlacks, info.Rows)
	}
	if len(info.BasicVars) != info.BasicStructural {
		t.Errorf("BasicVars %d != BasicStructural %d", len(info.BasicVars), info.BasicStructural)
	}
}
