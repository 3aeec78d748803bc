package main

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/obs"
)

// layerUnits lists every per-layer metric with its unit, in the order
// they are printed. A traced run of any workload prints all of them; a
// layer the workload does not reach reads 0.
var layerUnits = [][2]string{
	{"memsim.baseline_ms", "ms"}, {"memsim.simulate_ms", "ms"}, {"memsim.runs", "count"},
	{"memsim.lines", "count"}, {"memsim.bulk_fetches", "count"}, {"memsim.fetches", "count"},
	{"memsim.fetches_per_us", "1/us"}, {"cache.misses", "count"},
	{"core.build_ms", "ms"}, {"core.vars", "count"}, {"ilp.solve_ms", "ms"},
	{"ilp.simplex_iters", "count"}, {"ilp.nodes", "count"}, {"ilp.nodes_pruned", "count"},
	{"ilp.basis_reuse", "count"}, {"ilp.repair_pivots", "count"}, {"ilp.presolve_reuse", "count"},
	{"ilp.dense_fallbacks", "count"}, {"ilp.warm_hit_ratio", "ratio"},
	{"sim.profile_ms", "ms"}, {"sim.trace_replays", "count"},
	{"trace.partition_ms", "ms"}, {"trace.traces", "count"}, {"layout.ms", "ms"},
	{"conflict.build_ms", "ms"}, {"conflict.edges", "count"}, {"conflict.rebases", "count"},
	{"steinke.alloc_ms", "ms"}, {"loopcache.alloc_ms", "ms"},
	{"experiments.fig4_ms", "ms"}, {"experiments.fig5_ms", "ms"}, {"experiments.table1_ms", "ms"},
	{"experiments.sensitivity_ms", "ms"}, {"experiments.wcet_ms", "ms"}, {"experiments.overlay_ms", "ms"},
	{"experiments.data_ms", "ms"}, {"experiments.placement_ms", "ms"}, {"experiments.ablations_ms", "ms"},
	{"experiments.outcome_memo_hit_ratio", "ratio"}, {"experiments.pipeline_memo_hit_ratio", "ratio"},
	{"parallel.busy_ratio", "ratio"},
	{"server.queue_ms", "ms"}, {"server.compute_ms", "ms"}, {"server.cache_hit_ratio", "ratio"},
	{"server.coalesced", "count"}, {"server.solves", "count"}, {"server.warm_solves", "count"},
	{"server.intern_hit_ratio", "ratio"}, {"server.downgraded", "count"}, {"server.rejected", "count"},
	{"bench.traced_wall_s", "s"}, {"bench.untraced_wall_s", "s"},
}

// layerMetrics renders per-layer values in layerUnits order; n maps a
// metric to its sample count (default 1).
func layerMetrics(vals map[string]float64, n map[string]int) []metric {
	out := make([]metric, 0, len(layerUnits))
	for _, nu := range layerUnits {
		samples := n[nu[0]]
		if samples == 0 {
			samples = 1
		}
		out = append(out, metric{name: nu[0], value: vals[nu[0]], unit: nu[1], samples: samples})
	}
	return out
}

// counterLayers maps per-layer count metrics to the program's obs
// counters they are read from, as before/after deltas.
var counterLayers = map[string]string{
	"memsim.runs":         "casa_sim_runs_total",
	"memsim.lines":        "casa_sim_lines_total",
	"memsim.bulk_fetches": "casa_sim_bulk_fetches_total",
	"memsim.fetches":      "casa_sim_fetches_total",
	"cache.misses":        "casa_sim_cache_misses_total",
	"ilp.simplex_iters":   "casa_ilp_simplex_iters_total",
	"ilp.nodes":           "casa_ilp_nodes_total",
	"ilp.nodes_pruned":    "casa_ilp_nodes_pruned_total",
	"ilp.basis_reuse":     "casa_ilp_basis_reuse_total",
	"ilp.repair_pivots":   "casa_ilp_basis_repair_pivots_total",
	"ilp.presolve_reuse":  "casa_presolve_reuse_total",
	"ilp.dense_fallbacks": "casa_ilp_dense_fallbacks_total",
	"sim.trace_replays":   "casa_trace_replays_total",
}

// counts extracts the deterministic per-layer counts of a traced pass:
// the program counters' deltas plus the benchmark's own counts.
func counts(delta obs.Snapshot, own map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for m, c := range counterLayers {
		out[m] = delta[c]
	}
	for k, v := range own {
		out[k] = v
	}
	return out
}

// sameCounts reports every difference between two sets of counts;
// what names the two sets.
func sameCounts(what string, a, b map[string]float64) error {
	if reflect.DeepEqual(a, b) {
		return nil
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diff []string
	for _, k := range keys {
		if a[k] != b[k] {
			diff = append(diff, fmt.Sprintf("%s %v vs %v", k, a[k], b[k]))
		}
	}
	return fmt.Errorf("%s differ: %s", what, strings.Join(diff, "; "))
}

// suiteCounted are the per-layer counts the one-worker suite pass
// yields too: the program's counters, plus warm starts and conflict
// rebases, which the suite's planner does and counts itself.
func suiteCounted(c map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for m := range counterLayers {
		out[m] = c[m]
	}
	for _, m := range []string{"ilp.warm_hits", "casa.solves", "conflict.rebases"} {
		out[m] = c[m]
	}
	return out
}

// suiteLayerCounts reads suiteCounted's counts from the program's
// counters over a one-worker suite pass.
func suiteLayerCounts(delta obs.Snapshot) map[string]float64 {
	c := counts(delta, nil)
	c["ilp.warm_hits"] = delta["casa_ilp_warm_cell_hits_total"]
	c["casa.solves"] = delta["casa_ilp_warm_cell_hits_total"] + delta["casa_ilp_warm_cell_misses_total"]
	c["conflict.rebases"] = delta["casa_conflict_incremental_total"]
	return c
}

// tracedCounts are a traced pass's counts: the program's counters over
// the pass plus the recomposition's own.
func tracedCounts(ts *traceStats) map[string]float64 {
	c := counts(ts.delta, ts.counts)
	c["ilp.warm_hits"] = ts.delta["casa_ilp_warm_cell_hits_total"]
	return c
}

// gridLayerMetrics assembles a traced grid run. Times are per-pass
// medians over the traced passes. Counts are the program's own, from
// the one-worker suite pass (own); the recomposition must repeat them
// exactly, and every traced pass must repeat the first. Counts only the
// recomposition sees (traces, edges, variables) come from its first
// pass. The suite pass's wall time stands beside the traced pass's, at
// the same width over the same cells, so the tracing overhead shows.
// The pool and memo ratios and study times come from the untraced cold
// rounds.
func gridLayerMetrics(g *gridSpec, passes []*passStats, traces []*traceStats, own *suitePass, width int, res *result) []metric {
	vals := make(map[string]float64)
	n := make(map[string]int)
	c0 := tracedCounts(traces[0])
	for i, ts := range traces[1:] {
		res.attempted++
		if err := sameCounts(fmt.Sprintf("counts of traced passes 1 and %d", i+2), c0, tracedCounts(ts)); err != nil {
			res.failed++
			res.fail("%v", err)
		}
	}
	suite := suiteLayerCounts(own.delta)
	res.attempted++
	if err := sameCounts("counts of the one-worker suite pass and the traced recomposition",
		suiteCounted(suite), suiteCounted(c0)); err != nil {
		res.failed++
		res.fail("%v", err)
	}
	for k, v := range c0 {
		vals[k] = v
	}
	for k, v := range suiteCounted(suite) {
		vals[k] = v
	}
	vals["ilp.warm_hit_ratio"] = ratio(suite["ilp.warm_hits"], suite["casa.solves"])

	spanTimes := map[string]func(*traceStats) float64{
		"memsim.baseline_ms": func(t *traceStats) float64 { return t.total("memsim.baseline") },
		"memsim.simulate_ms": func(t *traceStats) float64 { return t.total("memsim.simulate") },
		"core.build_ms":      func(t *traceStats) float64 { return t.total("core.build") },
		"ilp.solve_ms": func(t *traceStats) float64 {
			return t.total("core.allocate") - t.total("core.build")
		},
		"sim.profile_ms":     func(t *traceStats) float64 { return t.total("sim.profile") },
		"trace.partition_ms": func(t *traceStats) float64 { return t.total("trace.partition") },
		"layout.ms":          func(t *traceStats) float64 { return t.total("layout") },
		"conflict.build_ms":  func(t *traceStats) float64 { return t.total("conflict.build") },
		"steinke.alloc_ms":   func(t *traceStats) float64 { return t.total("steinke.alloc") },
		"loopcache.alloc_ms": func(t *traceStats) float64 { return t.total("loopcache.alloc") },
		"bench.traced_wall_s": func(t *traceStats) float64 {
			return t.wall
		},
		"memsim.fetches_per_us": func(t *traceStats) float64 {
			us := 1e3 * (t.total("memsim.baseline") + t.total("memsim.simulate"))
			return ratio(t.delta["casa_sim_fetches_total"], us)
		},
	}
	for name, f := range spanTimes {
		var xs []float64
		for _, ts := range traces {
			xs = append(xs, f(ts))
		}
		vals[name], n[name] = median(xs), len(xs)
	}

	// Study times, pool and memo ratios: untraced cold rounds.
	studyMS := make(map[string][]float64)
	var busy, outHit, pipeHit []float64
	for _, ps := range passes {
		per := make(map[string]float64)
		for i, st := range g.studies {
			name := st.name
			if strings.HasPrefix(name, "fig4-") {
				name = "fig4"
			}
			per[name] += ms(ps.study[i])
		}
		for k, v := range per {
			studyMS[k] = append(studyMS[k], v)
		}
		d := ps.delta
		busy = append(busy, ratio(d["casa_pool_busy_ns_total"], float64(width)*ps.wall*1e9))
		outHit = append(outHit, ratio(d["casa_outcome_memo_hits_total"],
			d["casa_outcome_memo_hits_total"]+d["casa_outcome_memo_misses_total"]))
		pipeHit = append(pipeHit, ratio(d["casa_pipeline_memo_hits_total"],
			d["casa_pipeline_memo_hits_total"]+d["casa_pipeline_memo_misses_total"]))
	}
	for k, xs := range studyMS {
		vals["experiments."+k+"_ms"], n["experiments."+k+"_ms"] = median(xs), len(xs)
	}
	vals["bench.untraced_wall_s"] = own.wall
	vals["parallel.busy_ratio"], n["parallel.busy_ratio"] = median(busy), len(busy)
	vals["experiments.outcome_memo_hit_ratio"], n["experiments.outcome_memo_hit_ratio"] = median(outHit), len(outHit)
	vals["experiments.pipeline_memo_hit_ratio"], n["experiments.pipeline_memo_hit_ratio"] = median(pipeHit), len(pipeHit)
	return layerMetrics(vals, n)
}
