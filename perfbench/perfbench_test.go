package main

import (
	"context"
	"testing"
)

// TestTracedCountsRepeat runs grid-dse's traced recomposition twice and
// requires identical per-layer counts, equal to the program's own counts
// over the same grids on a one-worker suite. Counts come from this one-worker
// run because at two workers they depend on scheduling: which solved
// neighbours can donate a warm start depends on which cells finished
// first. Two separate two-worker processes measured 52456 vs 53534
// simplex iterations and 14 vs 15 warm hits; one worker gave 51887
// iterations on every pass.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("two traced grid-dse passes and a suite pass take about fifteen seconds")
	}
	progs, err := sharedPrograms()
	if err != nil {
		t.Fatal(err)
	}
	var first map[string]float64
	for pass := 0; pass < 2; pass++ {
		ts, err := recompose(context.Background(), dseCells(), progs)
		if err != nil {
			t.Fatal(err)
		}
		c := tracedCounts(ts)
		if c["ilp.simplex_iters"] == 0 || c["memsim.fetches"] == 0 {
			t.Fatalf("pass %d recorded no solver or simulator work: %v", pass, c)
		}
		if first == nil {
			first = c
			continue
		}
		if err := sameCounts("counts of two traced passes", first, c); err != nil {
			t.Fatal(err)
		}
	}
	g := &gridSpec{studies: dseStudies()}
	own, err := suiteCounts(context.Background(), g, progs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCounts("counts of the suite and the recomposition",
		suiteCounted(suiteLayerCounts(own.delta)), suiteCounted(first)); err != nil {
		t.Fatal(err)
	}
}

// TestQuantile pins the interpolation the percentiles use.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
