package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A grid workload's requests are study calls. A cold round calls every
// study once on a fresh suite, after sim.Forget on the shared programs,
// so it pays what a fresh `experiments -exp all` process pays: its calls
// are misses. Warm calls then re-request the workload's first study, a
// Figure 4 grid, on the same suite, where every cell comes from the
// suite's memo layers, the grid analogue of casad's result cache (and
// of serve-mix's popular set): they are hits. A pass is one cold round
// and warmCalls warm calls.
const (
	// warmCalls is not taken from any recorded use of the studies; no
	// such record exists. It is set for steady percentiles. With 50
	// hits per pass, each workload's slowest study (grid-paper's
	// sensitivity, grid-dse's two 512 B mpeg grids) is 2 to 4% of the
	// calls, so p99_ms falls inside those calls' times rather than in
	// the gap below them, where it moved by a quarter between runs.
	// Hits are then five calls in six or more, so p50_ms falls among
	// them. One study is re-requested because the studies' memo reads
	// cost from 15 to 60 µs: with all of them, hit_p50_ms sat in the
	// gap between two and moved as much.
	warmCalls = 50
	// minCalls is the fewest study calls a run makes, whatever its
	// window: a 1% tail needs a thousand samples to hold ten.
	minCalls = 1000

	// gridLimit is the latency limit a correct study call must meet to
	// count toward goodput.
	gridLimit = 10 * time.Second
	// setupReps is how many set-up reps run before the first pass; one
	// more runs after each pass, and setup_s is the median of all. A
	// rep builds the programs setupBuilds times and counts the mean:
	// one build takes about a millisecond, too short to time steadily
	// on its own. Reps spread over the run, because the same rep's time
	// moved by a fifth within seconds on a shared two-core host.
	setupReps   = 5
	setupBuilds = 20
	// goldenPath holds the committed experiment rows grid-paper checks
	// against, relative to the repository root the benchmark runs from.
	goldenPath = "internal/experiments/testdata/allocations.golden"
)

// study is one study call of a grid workload. run renders what the
// golden file holds for it; grid marks studies whose cells are all
// Suite.Pipeline outcomes, so a repeat on a warm suite is a pure memo
// hit (the ablations, for instance, re-solve on every call). The traced
// run recomposes the grid studies' cells, and warm calls repeat a
// workload's first study, which is a grid study.
type study struct {
	name string
	grid bool
	run  func(ctx context.Context, s *experiments.Suite, w io.Writer) error
}

// paperStudies are the studies of `experiments -exp all`, in its order,
// rendered as the golden file renders them.
func paperStudies() []study {
	return []study{
		{"fig4", true, func(ctx context.Context, s *experiments.Suite, w io.Writer) error {
			cfg := experiments.DefaultFig4()
			rows, err := experiments.Fig4(ctx, s, cfg)
			if err == nil {
				experiments.WriteFig4(w, cfg, rows)
			}
			return err
		}},
		{"fig5", true, func(ctx context.Context, s *experiments.Suite, w io.Writer) error {
			cfg := experiments.DefaultFig5()
			rows, err := experiments.Fig5(ctx, s, cfg)
			if err == nil {
				experiments.WriteFig5(w, cfg, rows)
			}
			return err
		}},
		{"table1", true, func(ctx context.Context, s *experiments.Suite, w io.Writer) error {
			rows, avgs, err := experiments.Table1(ctx, s, experiments.DefaultTable1())
			if err == nil {
				experiments.WriteTable1(w, rows, avgs)
			}
			return err
		}},
		{"sensitivity", true, func(ctx context.Context, s *experiments.Suite, w io.Writer) error {
			cfg := experiments.DefaultSensitivity()
			rows, err := experiments.Sensitivity(ctx, s, cfg)
			if err == nil {
				experiments.WriteSensitivity(w, cfg, rows)
			}
			return err
		}},
		{"wcet", false, func(ctx context.Context, s *experiments.Suite, w io.Writer) error {
			rows, err := experiments.WCETStudy(ctx, s, experiments.DefaultWCETStudy())
			if err == nil {
				experiments.WriteWCETStudy(w, rows)
			}
			return err
		}},
		{"overlay", false, func(ctx context.Context, s *experiments.Suite, w io.Writer) error {
			cfg, err := experiments.DefaultOverlayStudy()
			if err != nil {
				return err
			}
			rows, err := experiments.OverlayStudy(ctx, s, cfg)
			if err == nil {
				experiments.WriteOverlayStudy(w, rows)
			}
			return err
		}},
		{"data", false, func(ctx context.Context, s *experiments.Suite, w io.Writer) error {
			rows, err := experiments.DataStudy(ctx, s, experiments.DefaultDataStudy())
			if err == nil {
				experiments.WriteDataStudy(w, rows)
			}
			return err
		}},
		{"placement", false, func(ctx context.Context, s *experiments.Suite, w io.Writer) error {
			rows, err := experiments.PlacementStudy(ctx, s, experiments.DefaultPlacementStudy())
			if err == nil {
				experiments.WritePlacementStudy(w, rows)
			}
			return err
		}},
		{"ablations", false, func(ctx context.Context, s *experiments.Suite, w io.Writer) error {
			abl, err := experiments.Ablations(ctx, s, experiments.DefaultAblations())
			if err != nil {
				return err
			}
			// Energies only, as the golden file records them: times,
			// node and iteration counts are solver effort.
			fmt.Fprintf(w, "ablation copy-vs-move: copy %.4f uJ (%d misses) move %.4f uJ (%d misses)\n",
				abl.CopyMove.CopyMicroJ, abl.CopyMove.CopyMisses,
				abl.CopyMove.MoveMicroJ, abl.CopyMove.MoveMisses)
			fmt.Fprintf(w, "ablation linearization: tight %.4f nJ (%v) faithful %.4f nJ (%v)\n",
				abl.Linearization.TightEnergy, abl.Linearization.TightStatus,
				abl.Linearization.FaithfulEnergy, abl.Linearization.FaithfulStatus)
			fmt.Fprintf(w, "ablation greedy-vs-ilp: ilp %.4f uJ greedy %.4f uJ (predicted %.4f vs %.4f nJ)\n",
				abl.GreedyILP.ILPMicroJ, abl.GreedyILP.GreedyMicroJ,
				abl.GreedyILP.ILPPredicted, abl.GreedyILP.GreedyPredicted)
			return nil
		}},
	}
}

// dseGrids are grid-dse's (workload, I-cache) pairs; each runs as one
// Fig4 grid over dseSPM.
func dseGrids() []experiments.Fig4Config {
	var out []experiments.Fig4Config
	for _, w := range []string{"mpeg", "g721"} {
		for _, c := range []experiments.CacheSpec{
			experiments.DM(256),
			experiments.DM(512),
			{Size: 512, Line: experiments.DefaultLine, Assoc: 2, Policy: cache.LRU},
		} {
			out = append(out, experiments.Fig4Config{Workload: w, Cache: c, SPMSizes: []int{1024, 2048, 4096}})
		}
	}
	return out
}

func dseStudies() []study {
	var out []study
	for _, cfg := range dseGrids() {
		cfg := cfg
		out = append(out, study{
			name: fmt.Sprintf("fig4-%s-%dB-%dway", cfg.Workload, cfg.Cache.Size, cfg.Cache.Assoc),
			grid: true,
			run: func(ctx context.Context, s *experiments.Suite, w io.Writer) error {
				rows, err := experiments.Fig4(ctx, s, cfg)
				if err == nil {
					experiments.WriteFig4(w, cfg, rows)
				}
				return err
			},
		})
	}
	return out
}

// gridSpec is one grid workload.
type gridSpec struct {
	studies []study
	// cells lists the pipeline cells the traced run recomposes.
	cells []cellSpec
	// check validates a finished pass beyond its rendered rows.
	check func(ctx context.Context, s *experiments.Suite, res *result)
	// golden is the expected rendering of one pass (nil: none).
	golden []byte
	// prepare, when set, runs after set-up is timed and before the
	// warm-up pass.
	prepare func() error
}

// sharedPrograms returns the shared instances of the bundled programs.
func sharedPrograms() ([]*ir.Program, error) {
	var out []*ir.Program
	for _, name := range workload.Names() {
		p, err := workload.Shared(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// setupRep times building the bundled programs (fresh instances)
// setupBuilds times and returns the seconds per build.
func setupRep() (float64, error) {
	runtime.GC() // every rep starts from the same heap state
	start := time.Now()
	for b := 0; b < setupBuilds; b++ {
		for _, name := range workload.Names() {
			if _, err := workload.Load(name); err != nil {
				return 0, err
			}
		}
		if _, err := workload.TwoPass(); err != nil {
			return 0, err
		}
	}
	return elapsed(start) / setupBuilds, nil
}

// passStats is one pass of a grid workload.
type passStats struct {
	// wall is the cold round's time; allocBytes and delta cover it.
	wall       float64
	allocBytes uint64
	delta      obs.Snapshot
	// study holds each cold call's seconds, hit each warm call's.
	study, hit []float64
	ok         int // correct calls within gridLimit
	calls      int
	failed     int
	suite      *experiments.Suite
}

// forget drops the shared programs' memos, so the next pass is cold.
func forget(progs []*ir.Program) {
	for _, p := range progs {
		sim.Forget(p)
	}
}

// gridPass runs one pass: every study on a fresh suite at pool width
// width, then warm calls of the first study on that suite. Each cold
// call's rows must equal its part of g.golden (when set) and no CASA
// solve may come back degraded; each warm call's rows must equal the
// cold call's.
func gridPass(ctx context.Context, g *gridSpec, progs []*ir.Program, width, warm int, res *result) *passStats {
	forget(progs)
	ps := &passStats{suite: experiments.NewSuite().SetWorkers(width)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := obs.Default.Snapshot()
	var first []byte // the first study's rows, which warm calls repeat
	off := 0
	start := time.Now()
	for i, st := range g.studies {
		var buf bytes.Buffer
		pre := obs.Default.Snapshot()
		t0 := time.Now()
		err := st.run(ctx, ps.suite, &buf)
		d := elapsed(t0)
		degraded := obs.Default.Delta(pre)["casa_solve_degraded_total"]
		ps.study = append(ps.study, d)
		if i == 0 {
			first = buf.Bytes()
		}
		good := err == nil && degraded == 0
		switch {
		case err != nil:
			res.fail("%s: %v", st.name, err)
		case degraded > 0:
			res.fail("%s: %v degraded CASA solves", st.name, degraded)
		}
		if g.golden != nil {
			end := off + buf.Len()
			if i == len(g.studies)-1 || end > len(g.golden) {
				end = len(g.golden) // the last call renders the rest
			}
			if !bytes.Equal(buf.Bytes(), g.golden[off:end]) {
				good = false
				res.fail("%s rows differ from the golden file:\n%s", st.name, firstDiff(buf.Bytes(), g.golden[off:end]))
			}
			off = end
		}
		ps.count(good, d)
	}
	ps.wall = elapsed(start)
	ps.delta = obs.Default.Delta(before)
	runtime.ReadMemStats(&m1)
	ps.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st := g.studies[0]
	for r := 0; r < warm; r++ {
		var buf bytes.Buffer
		t0 := time.Now()
		err := st.run(ctx, ps.suite, &buf)
		d := elapsed(t0)
		ps.hit = append(ps.hit, d)
		good := err == nil && bytes.Equal(buf.Bytes(), first)
		if err != nil {
			res.fail("%s warm: %v", st.name, err)
		} else if !good {
			res.fail("%s warm rows differ from its cold call", st.name)
		}
		ps.count(good, d)
	}
	return ps
}

// count tallies a study call's outcome.
func (ps *passStats) count(good bool, d float64) {
	ps.calls++
	switch {
	case !good:
		ps.failed++
	case d <= gridLimit.Seconds():
		ps.ok++
	}
}

// firstDiff shows the first differing line of got against want.
func firstDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "(lengths differ)"
}

func runGridPaper(cfg runConfig) (*result, error) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("grid-paper: read golden rows: %w", err)
	}
	return runGrid(cfg, &gridSpec{
		studies: paperStudies(),
		cells:   paperCells(),
		golden:  golden,
	})
}

func runGridDSE(cfg runConfig) (*result, error) {
	g := &gridSpec{studies: dseStudies(), cells: dseCells()}
	var refs map[cellKey]*coldRef
	g.prepare = func() (err error) {
		refs, err = coldReferences(context.Background(), g.cells)
		return err
	}
	g.check = func(ctx context.Context, s *experiments.Suite, res *result) {
		checkObjectives(ctx, s, refs, res)
	}
	return runGrid(cfg, g)
}

// runGrid measures a grid workload: set-up (timed again after every
// pass), one discarded warm-up pass, then timed passes until the window
// closes and the run holds minCalls study calls (at least three
// passes). A traced run instead alternates
// a cold round (study times, pool and memo ratios) with the traced
// recomposition of every cell at one worker, and runs the grid studies
// once on a one-worker suite for the program's own counts.
func runGrid(cfg runConfig, g *gridSpec) (*result, error) {
	ctx := context.Background()
	res := &result{}
	var setups []float64
	for len(setups) < setupReps {
		d, err := setupRep()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	progs, err := sharedPrograms()
	if err != nil {
		return nil, err
	}
	if g.prepare != nil {
		if err := g.prepare(); err != nil {
			return nil, err
		}
	}
	width, warm := workers(), warmCalls
	if cfg.trace {
		warm = 0
	}
	gridPass(ctx, g, progs, width, warm, &result{}) // warm-up, discarded

	var passes []*passStats
	var traces []*traceStats
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	calls := 0
	for len(passes) < 3 || time.Now().Before(deadline) || (!cfg.trace && calls < minCalls) {
		ps := gridPass(ctx, g, progs, width, warm, res)
		passes = append(passes, ps)
		calls += ps.calls
		d, err := setupRep()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		res.attempted += ps.calls
		res.failed += ps.failed
		if g.check != nil {
			g.check(ctx, ps.suite, res)
		}
		if cfg.trace {
			ts, err := recompose(ctx, g.cells, progs)
			if err != nil {
				return nil, err
			}
			compareCells(ctx, ps.suite, ts, res)
			traces = append(traces, ts)
		}
	}
	if cfg.trace {
		own, err := suiteCounts(ctx, g, progs)
		if err != nil {
			return nil, err
		}
		res.metrics = gridLayerMetrics(g, passes, traces, own, width, res)
		return res, nil
	}

	var walls, allocs, miss, hit []float64
	ok, busy := 0, 0.0
	for _, ps := range passes {
		walls = append(walls, ps.wall)
		allocs = append(allocs, float64(ps.allocBytes)/1e6)
		for _, d := range ps.study {
			miss = append(miss, ms(d))
			busy += d
		}
		for _, d := range ps.hit {
			hit = append(hit, ms(d))
			busy += d
		}
		ok += ps.ok
	}
	all := append(append([]float64(nil), miss...), hit...)
	res.metrics = []metric{
		{"wall_s", median(walls), "s", len(walls)},
		setupMetric(setups),
		{"alloc_mb", median(allocs), "MB", len(allocs)},
		percentileMetric("p50_ms", all, 0.50),
		percentileMetric("p99_ms", all, 0.99),
		percentileMetric("hit_p50_ms", hit, 0.50),
		percentileMetric("hit_p99_ms", hit, 0.99),
		percentileMetric("miss_p50_ms", miss, 0.50),
		percentileMetric("miss_p90_ms", miss, 0.90),
		{"goodput_rps", float64(ok) / busy, "1/s", len(all)},
	}
	return res, nil
}

// suitePass is one call of a workload's grid studies on a fresh
// one-worker suite, cold.
type suitePass struct {
	wall  float64
	delta obs.Snapshot
}

// suiteCounts runs a suitePass: the program's counters over it are the
// per-layer counts. At one worker the suite's warm planner meets the
// cells in one fixed order, so these counts repeat exactly, and the
// traced recomposition, over the same cells at the same width, must
// match them.
func suiteCounts(ctx context.Context, g *gridSpec, progs []*ir.Program) (*suitePass, error) {
	forget(progs)
	s := experiments.NewSuite().SetWorkers(1)
	before := obs.Default.Snapshot()
	start := time.Now()
	for _, st := range g.studies {
		if !st.grid {
			continue
		}
		if err := st.run(ctx, s, io.Discard); err != nil {
			return nil, fmt.Errorf("one-worker %s: %w", st.name, err)
		}
	}
	return &suitePass{wall: elapsed(start), delta: obs.Default.Delta(before)}, nil
}

// coldRef is a grid-dse cell's CASA answer from a cold, standalone solve.
type coldRef struct {
	objective float64
	inSPM     []bool
}

// coldReferences solves every cell's CASA ILP on a standalone pipeline
// (no suite: no warm start, no shared presolve).
func coldReferences(ctx context.Context, cells []cellSpec) (map[cellKey]*coldRef, error) {
	refs := make(map[cellKey]*coldRef)
	for _, c := range cells {
		prog, err := workload.Shared(c.workload)
		if err != nil {
			return nil, err
		}
		p, err := experiments.PrepareProgram(ctx, prog, c.cache, c.spm)
		if err != nil {
			return nil, err
		}
		a, err := p.CASAAllocation(ctx)
		if err != nil {
			return nil, err
		}
		refs[c.cellKey] = &coldRef{objective: a.PredictedEnergy, inSPM: a.InSPM}
	}
	return refs, nil
}

// casaParams are a pipeline's CASA energy parameters, as the pipeline
// derives them from its cost model.
func casaParams(p *experiments.Pipeline) core.Params {
	return core.Params{
		SPMSize:    p.SPMSize,
		ESPHit:     p.Cost.SPMAccess,
		ECacheHit:  p.Cost.CacheHit,
		ECacheMiss: p.Cost.CacheMiss,
	}
}

// checkObjectives verifies every grid-dse CASA solve of a pass: its
// objective equals core.PredictEnergy of its selection and the cold
// reference's objective, and its selection equals the reference's.
// Each checked cell counts as attempted, and each mismatching one as
// failed.
func checkObjectives(ctx context.Context, s *experiments.Suite, refs map[cellKey]*coldRef, res *result) {
	for k, ref := range refs {
		res.attempted++
		if err := checkObjective(ctx, s, k, ref); err != nil {
			res.failed++
			res.fail("%v", err)
		}
	}
}

func checkObjective(ctx context.Context, s *experiments.Suite, k cellKey, ref *coldRef) error {
	p, err := s.Pipeline(ctx, k.workload, k.cache, k.spm)
	if err != nil {
		return fmt.Errorf("%v: %w", k, err)
	}
	a, err := p.CASAAllocation(ctx)
	if err != nil {
		return fmt.Errorf("%v: %w", k, err)
	}
	if pred := core.PredictEnergy(p.Set, p.Graph, casaParams(p), a.InSPM); !near(pred, a.PredictedEnergy) {
		return fmt.Errorf("%v: objective %.6f, PredictEnergy of its selection %.6f", k, a.PredictedEnergy, pred)
	}
	if !near(a.PredictedEnergy, ref.objective) || !equalSel(a.InSPM, ref.inSPM) {
		return fmt.Errorf("%v: objective %.6f differs from the cold solve's %.6f (or its selection does)",
			k, a.PredictedEnergy, ref.objective)
	}
	return nil
}

// near compares two objective values computed along different
// floating-point paths (LP solution vs. direct sum).
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func equalSel(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
