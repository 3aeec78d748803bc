package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestWarmMatchesColdStudies is the central exactness contract of the
// incremental machinery: every fig4 and sensitivity cell of a suite run
// (cross-cell cutoffs, transferred bases and pseudocosts, shared
// presolve session, rebased conflict graphs) selects the same traces
// and reaches the same energy as that cell prepared standalone. A
// standalone pipeline has no suite, so it gets no cutoff, basis,
// session or graph donor: it solves cold.
func TestWarmMatchesColdStudies(t *testing.T) {
	if raceEnabled {
		t.Skip("full warm-vs-cold sweep is too heavy under the race detector")
	}
	if testing.Short() {
		t.Skip("warm-vs-cold sweep skipped in -short mode")
	}
	ctx := context.Background()
	s := NewSuite().SetWorkers(1)
	hits := obs.GetCounter("casa_ilp_warm_cell_hits_total")
	hitsBefore := hits.Value()
	type cell struct {
		workload string
		cache    CacheSpec
		spm      int
	}
	var cells []cell
	fig4cfg := DefaultFig4()
	if _, err := Fig4(ctx, s, fig4cfg); err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	for _, size := range fig4cfg.SPMSizes {
		cells = append(cells, cell{fig4cfg.Workload, fig4cfg.Cache, size})
	}
	senscfg := DefaultSensitivity()
	if _, err := Sensitivity(ctx, s, senscfg); err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	for _, spec := range senscfg.Variants {
		cells = append(cells, cell{senscfg.Workload, spec, senscfg.SPMSize})
	}
	if hits.Value() == hitsBefore {
		t.Fatal("suite run solved no cell warm; the comparison would be cold against cold")
	}

	for _, c := range cells {
		name := fmt.Sprintf("%s cache=%+v spm=%d", c.workload, c.cache, c.spm)
		warmP, err := s.Pipeline(ctx, c.workload, c.cache, c.spm)
		if err != nil {
			t.Fatalf("%s: suite pipeline: %v", name, err)
		}
		coldP, err := Prepare(ctx, c.workload, c.cache, c.spm)
		if err != nil {
			t.Fatalf("%s: standalone pipeline: %v", name, err)
		}
		var allocs [2]*core.Allocation
		var energy [2]float64
		for i, p := range []*Pipeline{warmP, coldP} {
			if allocs[i], err = p.CASAAllocation(ctx); err != nil {
				t.Fatalf("%s: allocation: %v", name, err)
			}
			out, err := p.RunCASA(ctx)
			if err != nil {
				t.Fatalf("%s: RunCASA: %v", name, err)
			}
			energy[i] = out.EnergyMicroJ
		}
		if !slices.Equal(allocs[0].InSPM, allocs[1].InSPM) {
			t.Errorf("%s: warm selection %v, cold %v", name, allocs[0].InSPM, allocs[1].InSPM)
		}
		if energy[0] != energy[1] {
			t.Errorf("%s: warm energy %v µJ, cold %v µJ", name, energy[0], energy[1])
		}
	}
}

// TestFig4PermutedOrderInvariant is the order-independence property:
// whatever order the grid's cells are evaluated in — natural
// (smallest first), warm (largest first), or random permutations where
// consecutive cells are often not grid neighbors — the rows are
// identical. Cell order may change which solves find donors (and so the
// hit/miss counters), but donated cutoffs never change an answer.
func TestFig4PermutedOrderInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("permutation sweep skipped in -short mode")
	}
	ctx := context.Background()
	cfg := DefaultFig4()
	want, err := Fig4(ctx, NewSuite().SetWorkers(1), cfg)
	if err != nil {
		t.Fatalf("reference Fig4: %v", err)
	}
	n := len(cfg.SPMSizes)
	orders := [][]int{{0, 1, 2, 3}, {3, 1, 0, 2}}
	rng := rand.New(rand.NewSource(0x0F0F))
	perms := 3
	if raceEnabled {
		perms = 1
	}
	for p := 0; p < perms; p++ {
		orders = append(orders, rng.Perm(n))
	}
	for _, order := range orders {
		got, err := fig4Ordered(ctx, NewSuite().SetWorkers(1), cfg, order)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("order %v: row %d diverged:\n got %+v\nwant %+v", order, i, got[i], want[i])
			}
		}
	}
}

// TestSensitivityPermutedOrderInvariant is the order-independence
// property for the cache-organization sweep, where most cells share one
// trace partition and therefore exchange simplex bases and pseudocosts,
// not just cutoffs (warmplan.go): whatever order the cells run in, the
// rows are identical. It also pins down that basis transfer actually
// fires on this grid — the serial natural-order sweep must install at
// least one donor basis, or the property test would be vacuously
// passing on a cold path.
func TestSensitivityPermutedOrderInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("permutation sweep skipped in -short mode")
	}
	ctx := context.Background()
	cfg := DefaultSensitivity()
	reuseBefore := obs.GetCounter("casa_ilp_basis_reuse_total").Value()
	want, err := Sensitivity(ctx, NewSuite().SetWorkers(1), cfg)
	if err != nil {
		t.Fatalf("reference Sensitivity: %v", err)
	}
	if got := obs.GetCounter("casa_ilp_basis_reuse_total").Value(); got == reuseBefore {
		t.Errorf("serial sensitivity sweep installed no donor basis (casa_ilp_basis_reuse_total unchanged at %d)", got)
	}
	n := len(cfg.Variants)
	orders := [][]int{{6, 5, 4, 3, 2, 1, 0}, {3, 0, 6, 1, 4, 2, 5}}
	rng := rand.New(rand.NewSource(0x5EED))
	perms := 2
	if raceEnabled {
		perms = 1
	}
	for p := 0; p < perms; p++ {
		orders = append(orders, rng.Perm(n))
	}
	for _, order := range orders {
		got, err := sensitivityOrdered(ctx, NewSuite().SetWorkers(1), cfg, order)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("order %v: row %d diverged:\n got %+v\nwant %+v", order, i, got[i], want[i])
			}
		}
	}
}

// TestSensitivityConcurrentWarmStress runs the sensitivity sweep with
// many workers sharing one suite and checks the rows still match the
// serial run: with several cells of one trace partition in flight at
// once, which donor basis a cell receives depends on scheduling, and
// none of that may leak into results.
func TestSensitivityConcurrentWarmStress(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent sensitivity sweep skipped in -short mode")
	}
	ctx := context.Background()
	cfg := DefaultSensitivity()
	want, err := Sensitivity(ctx, NewSuite().SetWorkers(1), cfg)
	if err != nil {
		t.Fatalf("serial Sensitivity: %v", err)
	}
	rounds := 2
	if raceEnabled {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		got, err := Sensitivity(ctx, NewSuite().SetWorkers(8), cfg)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("round %d: row %d diverged under concurrency:\n got %+v\nwant %+v", r, i, got[i], want[i])
			}
		}
	}
}

// TestFig4ConcurrentWarmStress runs the grid with many workers sharing
// one suite — one presolve session, one warm store, one conflict-graph
// store — and checks the rows still match the serial run. Under the
// race detector this doubles as the data-race gate on the shared
// incremental state.
func TestFig4ConcurrentWarmStress(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultFig4()
	want, err := Fig4(ctx, NewSuite().SetWorkers(1), cfg)
	if err != nil {
		t.Fatalf("serial Fig4: %v", err)
	}
	rounds := 3
	if raceEnabled || testing.Short() {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		got, err := Fig4(ctx, NewSuite().SetWorkers(8), cfg)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("round %d: row %d diverged under concurrency:\n got %+v\nwant %+v", r, i, got[i], want[i])
			}
		}
	}
}
