package memsim

// Derived runs (record.go) against the reference engine, the runs that
// must keep the full replay, the set-independence invariant the
// derivation rests on (checked with full replays only), and the record
// memo's lifecycle.

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// checkAfterProfiling runs a conflict-profiling run over plainLay, then
// lay under cfg with conflict tracking and cache retention off, and
// compares that run against the reference engine. It reports whether
// the run was derived rather than replayed.
func checkAfterProfiling(t testing.TB, p *ir.Program, plainLay, lay *layout.Layout, cfg Config) bool {
	t.Helper()
	prof := cfg
	prof.TrackConflicts, prof.KeepCache, prof.Reference = true, false, false
	if _, err := Run(p, plainLay, prof); err != nil {
		t.Fatalf("profiling Run: %v", err)
	}
	run := cfg
	run.TrackConflicts, run.KeepCache, run.Reference = false, false, false
	d0 := mSimDerived.Value()
	got, err := Run(p, lay, run)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	derived := mSimDerived.Value() > d0
	run.Reference = true
	ref, err := Run(p, lay, run)
	if err != nil {
		t.Fatalf("reference Run: %v", err)
	}
	diffResults(t, ref, got)
	return derived
}

// sharesLines reports whether some cache line of lay's main image holds
// code of two traces.
func sharesLines(lay *layout.Layout, lineBytes int) bool {
	owner := map[uint32]int{}
	for _, tr := range lay.Set().Traces {
		base, _ := lay.MainImageBase(tr.ID)
		for a := base; a < base+uint32(tr.RawBytes); a += 4 {
			line := a / uint32(lineBytes)
			if o, ok := owner[line]; ok && o != tr.ID {
				return true
			}
			owner[line] = tr.ID
		}
	}
	return false
}

// FuzzDerivedMatchesReference cross-checks derived runs against the
// reference engine: a plain profiling run, then the cache-only run and
// several random copy-mode selections of the same program, image and
// cache, under every replacement policy, word-sized lines included, and
// with the scratchpad window below or above the image.
func FuzzDerivedMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("derive"))
	f.Add([]byte{7, 1, 3, 9, 2, 5, 8, 4, 6, 0, 11, 13, 17, 19, 23, 29, 31, 37})
	f.Add([]byte{255, 254, 253, 3, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255, 127, 63, 200, 100, 50, 25})
	f.Add([]byte{5, 0, 42, 2, 1, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{3, 1, 2, 2, 6, 3, 1, 0, 1, 1, 2, 1, 1, 2, 0, 2, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fz := &fuzzReader{data: data}
		p, err := fuzzProgram(fz)
		if err != nil {
			t.Skipf("unbuildable program: %v", err)
		}
		// Every input builds a new program; release its memos, or they
		// pin one program per input for the life of the worker.
		defer sim.Forget(p)
		set := buildTraces(t, p, trace.Options{
			MaxBytes:  16 << (fz.byte() % 4),
			LineBytes: 4 << (fz.byte() % 3),
		})
		opt := layout.Options{Mode: layout.Copy, SPMSize: 64 << (fz.byte() % 3)}
		if fz.byte()%3 == 0 {
			opt.SPMBase = layout.DefaultMainBase + 1<<20
		}
		line := 4 << (fz.byte() % 3)
		assoc := 1 << (fz.byte() % 3)
		size := max(32<<(fz.byte()%5), line*assoc)
		cc := cache.Config{
			SizeBytes:   size,
			LineBytes:   line,
			Assoc:       assoc,
			Replacement: cache.Policy(fz.byte() % 3),
			Seed:        uint64(fz.byte()),
		}
		cfg := Config{Cache: cc, Cost: costFor(t, cc, opt.SPMSize)}
		plainLay := mustLayout(t, set, nil, opt)

		if !checkAfterProfiling(t, p, plainLay, plainLay, cfg) {
			t.Error("cache-only run after a profiling run was replayed, not derived")
		}
		copyOK := (assoc == 1 || cc.Replacement != cache.Random) && !sharesLines(plainLay, line)
		for k := 0; k < 3; k++ {
			alloc := make([]bool, len(set.Traces))
			any := false
			for i := range alloc {
				alloc[i] = fz.byte()%3 == 0
				any = any || alloc[i]
			}
			lay, err := layout.New(set, alloc, opt)
			if err != nil || !any {
				continue // the selection overflows the window, or is plain
			}
			if derived := checkAfterProfiling(t, p, plainLay, lay, cfg); derived != copyOK {
				t.Errorf("selection %v: derived = %v, want %v", alloc, derived, copyOK)
			}
		}
	})
}

// TestDerivedRunExclusions: every run the derivation does not cover
// replays in full even when a record of its image and cache exists.
func TestDerivedRunExclusions(t *testing.T) {
	p, set := patternFixture(t)
	dm := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}
	hot := make([]bool, len(set.Traces))
	hot[hottestTrace(set)] = true
	opt := layout.Options{Mode: layout.Copy, SPMSize: 128}
	plainLay := mustLayout(t, set, nil, opt)
	copyLay := mustLayout(t, set, hot, opt)
	moveLay := mustLayout(t, set, hot, layout.Options{Mode: layout.Move, SPMSize: 128})
	random := cache.Config{SizeBytes: 128, LineBytes: 16, Assoc: 2, Replacement: cache.Random, Seed: 3}

	cases := []struct {
		name string
		lay  *layout.Layout
		cfg  Config
		opts []sim.Option
	}{
		{"move", moveLay, Config{Cache: dm}, nil},
		{"loop-cache", plainLay, Config{Cache: dm, LoopCache: hotController(t, set, plainLay)}, nil},
		{"l2", copyLay, Config{Cache: dm, L2: cache.Config{SizeBytes: 512, LineBytes: 16, Assoc: 2}}, nil},
		{"random-assoc-copy", copyLay, Config{Cache: random}, nil},
		{"custom-options", copyLay, Config{Cache: dm}, []sim.Option{sim.WithMaxFetches(1 << 30)}},
		{"keep-cache", copyLay, Config{Cache: dm, KeepCache: true}, nil},
		{"track-conflicts", copyLay, Config{Cache: dm, TrackConflicts: true}, nil},
		{"reference", copyLay, Config{Cache: dm, Reference: true}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prof := Config{Cache: tc.cfg.Cache, TrackConflicts: true}
			if _, err := Run(p, plainLay, prof); err != nil {
				t.Fatal(err)
			}
			d0, r0 := mSimDerived.Value(), mTraceReplays()
			if _, err := Run(p, tc.lay, tc.cfg, tc.opts...); err != nil {
				t.Fatal(err)
			}
			if mSimDerived.Value() != d0 {
				t.Error("run was derived; it must replay")
			}
			if !tc.cfg.Reference && len(tc.opts) == 0 && mTraceReplays() == r0 {
				t.Error("run neither derived nor replayed")
			}
		})
	}

	// A Random associative cache still derives its cache-only run: the
	// fetch stream, and so the generator's draws, are the profiling
	// run's.
	d0 := mSimDerived.Value()
	if _, err := Run(p, plainLay, Config{Cache: random}); err != nil {
		t.Fatal(err)
	}
	if mSimDerived.Value() != d0+1 {
		t.Error("Random associative cache-only run was not derived")
	}
}

// mTraceReplays reads casa_trace_replays_total.
func mTraceReplays() int64 { return obs.GetCounter("casa_trace_replays_total").Value() }

// recordBytes reads the casa_sim_record_bytes gauge.
func recordBytes() int64 { return obs.GetGauge("casa_sim_record_bytes").Value() }

// TestCopyRunKeepsUnaffectedSets checks the invariant the derivation
// rests on with full replays alone: a copy-mode run leaves the hits,
// misses and evictions of every set no scratchpad line maps to equal
// to the profiling run's.
func TestCopyRunKeepsUnaffectedSets(t *testing.T) {
	configs := []cache.Config{
		{SizeBytes: 1024, LineBytes: 16, Assoc: 1},
		{SizeBytes: 1024, LineBytes: 16, Assoc: 2, Replacement: cache.LRU},
		{SizeBytes: 1024, LineBytes: 16, Assoc: 2, Replacement: cache.FIFO},
	}
	for _, name := range []string{"adpcm", "g721", "mpeg"} {
		p, err := workload.Shared(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := sim.CachedProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		const spm = 512
		set, err := trace.Build(p, prof, trace.Options{MaxBytes: spm, LineBytes: 16})
		if err != nil {
			t.Fatal(err)
		}
		// The hottest traces that fit, hottest first.
		ids := make([]int, len(set.Traces))
		for i := range ids {
			ids[i] = i
		}
		sort.SliceStable(ids, func(a, b int) bool { return set.Traces[ids[a]].Fetches > set.Traces[ids[b]].Fetches })
		alloc := make([]bool, len(set.Traces))
		used := 0
		for _, id := range ids {
			if tr := set.Traces[id]; used+tr.RawBytes <= spm {
				alloc[id] = true
				used += tr.RawBytes
			}
		}
		plainLay := mustLayout(t, set, nil, layout.Options{})
		copyLay := mustLayout(t, set, alloc, layout.Options{Mode: layout.Copy, SPMSize: spm})
		for _, cc := range configs {
			base, err := Run(p, plainLay, Config{Cache: cc, TrackConflicts: true, KeepCache: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(p, copyLay, Config{Cache: cc, KeepCache: true})
			if err != nil {
				t.Fatal(err)
			}
			spmSets := map[int]bool{}
			for id, in := range alloc {
				if !in {
					continue
				}
				a, _ := plainLay.MainImageBase(id)
				for end := a + uint32(set.Traces[id].RawBytes); a < end; a += 4 {
					spmSets[int(base.Cache.Set(a))] = true
				}
			}
			if len(spmSets) == 0 || len(spmSets) == cc.Sets() {
				t.Fatalf("%s: scratchpad lines map to %d of %d sets; the check needs both kinds", name, len(spmSets), cc.Sets())
			}
			for s := 0; s < cc.Sets(); s++ {
				if !spmSets[s] && base.Cache.StatsOf(s) != got.Cache.StatsOf(s) {
					t.Errorf("%s %d-way %v set %d: profiling %+v, copy run %+v",
						name, cc.Assoc, cc.Replacement, s, base.Cache.StatsOf(s), got.Cache.StatsOf(s))
				}
			}
		}
	}
}

// TestRecordMemo: sim.Forget drops a program's records, and an injected
// memo miss forces the full replay.
func TestRecordMemo(t *testing.T) {
	p, set := callFixture(t)
	cc := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}
	hot := make([]bool, len(set.Traces))
	hot[hottestTrace(set)] = true
	opt := layout.Options{Mode: layout.Copy, SPMSize: 128}
	plainLay := mustLayout(t, set, nil, opt)
	copyLay := mustLayout(t, set, hot, opt)
	derived := func() bool {
		t.Helper()
		d0 := mSimDerived.Value()
		if _, err := Run(p, copyLay, Config{Cache: cc}); err != nil {
			t.Fatal(err)
		}
		return mSimDerived.Value() > d0
	}

	b0, n0 := recordBytes(), obs.GetCounter("casa_sim_records_total").Value()
	if _, err := Run(p, plainLay, Config{Cache: cc, TrackConflicts: true}); err != nil {
		t.Fatal(err)
	}
	if n := obs.GetCounter("casa_sim_records_total").Value() - n0; n != 1 || recordBytes() <= b0 {
		t.Fatalf("profiling run stored %d records, record bytes %d → %d", n, b0, recordBytes())
	}
	if !derived() {
		t.Fatal("copy run after the profiling run was not derived")
	}

	fault.Set(fault.NewPlan().Always(fault.MemoMiss))
	missed := derived()
	fired := fault.Active().Fired()[fault.MemoMiss]
	fault.Set(nil)
	if missed || fired == 0 {
		t.Errorf("under an injected memo miss: derived = %v, memo-miss fired %d times", missed, fired)
	}

	sim.Forget(p)
	if recordBytes() != b0 {
		t.Errorf("record bytes %d after Forget, %d before the profiling run", recordBytes(), b0)
	}
	if derived() {
		t.Error("copy run after Forget was derived")
	}
}

// TestDerivedRunMetrics: a derived run flushes the outcome counters a
// replay flushes, and adds only its re-simulated entries to
// casa_sim_lines_total.
func TestDerivedRunMetrics(t *testing.T) {
	p, set := thrashFixture(t)
	cc := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}
	hot := make([]bool, len(set.Traces))
	hot[hottestTrace(set)] = true
	opt := layout.Options{Mode: layout.Copy, SPMSize: 128}
	copyLay := mustLayout(t, set, hot, opt)
	if _, err := Run(p, mustLayout(t, set, nil, opt), Config{Cache: cc, TrackConflicts: true}); err != nil {
		t.Fatal(err)
	}
	snap := func() [7]int64 {
		return [7]int64{mSimRuns.Value(), mSimFetches.Value(), mSimHits.Value(), mSimMisses.Value(),
			mSimSPM.Value(), mSimEvicts.Value(), mSimLines.Value()}
	}
	before := snap()
	got, err := Run(p, copyLay, Config{Cache: cc})
	if err != nil {
		t.Fatal(err)
	}
	mid := snap()
	sim.Forget(p)
	full, err := Run(p, copyLay, Config{Cache: cc, KeepCache: true})
	if err != nil {
		t.Fatal(err)
	}
	after := snap()
	for i, name := range []string{"runs", "fetches", "cache_hits", "cache_misses", "spm_accesses", "cache_evictions"} {
		if d, r := mid[i]-before[i], after[i]-mid[i]; d != r {
			t.Errorf("casa_sim_%s_total: derived run added %d, replay %d", name, d, r)
		}
	}
	if got.ConflictMisses != full.Cache.TotalStats().Evictions {
		t.Errorf("derived conflict misses %d, replay evictions %d", got.ConflictMisses, full.Cache.TotalStats().Evictions)
	}
	if d, r := mid[6]-before[6], after[6]-mid[6]; d <= 0 || d >= r {
		t.Errorf("casa_sim_lines_total: derived run added %d, replay %d; want 0 < derived < replay", d, r)
	}
}

// TestFIFOSkippedPassesRecorded drives a recorder with a hand-made
// access sequence on a one-set, 4-way FIFO cache. In the profiling run
// a loop hits on every pass, so the replay accounts all passes but the
// first and the last in bulk; once the scratchpad line is removed the
// loop misses on each of its first three passes (lines shared with the
// blocks before and after the loop leave the FIFO order slow to
// settle). The record must hold the bulk passes for FIFO: the derived
// run has to match a plain simulation of every pass.
func TestFIFOSkippedPassesRecorded(t *testing.T) {
	pb := ir.NewProgramBuilder("fifo")
	f := pb.Func("main")
	f.Block("r").Code(15)
	f.Block("s").Code(11)
	f.Block("z").Code(15)
	f.Block("end").Return()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	set := buildTraces(t, p, trace.Options{MaxBytes: 64, LineBytes: 16})
	plainLay := mustLayout(t, set, nil, layout.Options{})
	owner := map[uint32]int{} // line address → trace
	// lines returns the first n line addresses of the trace holding
	// block name.
	lines := func(name string, n int) ([]uint32, int) {
		id := -1
		for _, b := range p.Funcs[0].Blocks {
			if b.Label == name {
				id = set.TraceIDOf(ir.BlockRef{Func: 0, Block: b.ID})
			}
		}
		base, _ := plainLay.MainImageBase(id)
		if set.Traces[id].RawBytes <= 16*(n-1) {
			t.Fatalf("trace of %s holds %dB, want %d lines", name, set.Traces[id].RawBytes, n)
		}
		var out []uint32
		for i := 0; i < n; i++ {
			out = append(out, base+uint32(16*i))
			owner[base+uint32(16*i)] = id
		}
		return out, id
	}
	r, rID := lines("r", 1)
	s, _ := lines("s", 3)
	z, _ := lines("z", 3)

	// The accesses before the loop: foreign lines, the scratchpad line,
	// the blocks before and after the loop touching its first and last
	// line, and two loop passes.
	pre := []uint32{z[0], r[0], s[0], z[1], z[2], z[0], s[2]}
	pre = append(pre, s...)
	pre = append(pre, s...)
	pre = append(pre, z[0], z[1])
	const passes = 8

	cc := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 4, Replacement: cache.FIFO}
	type outcome struct{ misses, cold int64 }
	// simulate runs the whole sequence, every loop pass included,
	// through a FIFO set, skipping the dropped line.
	simulate := func(drop uint32) (outcome, []int64) {
		var q []uint32
		var o outcome
		access := func(a uint32) bool {
			if a == drop {
				return true
			}
			for _, l := range q {
				if l == a {
					return true
				}
			}
			o.misses++
			if len(q) < cc.Assoc {
				o.cold++
			} else {
				q = q[1:]
			}
			q = append(q, a)
			return false
		}
		for _, a := range pre {
			access(a)
		}
		var perPass []int64
		for k := 0; k < passes; k++ {
			m := int64(0)
			for _, a := range s {
				if !access(a) {
					m++
				}
			}
			perPass = append(perPass, m)
		}
		return o, perPass
	}

	rec := newRecorder(plainLay, cc)
	base, basePasses := simulate(0)
	if basePasses[0] != 0 {
		t.Fatalf("profiling run's loop passes %v: first pass misses", basePasses)
	}
	want, wantPasses := simulate(r[0])
	if wantPasses[2] == 0 {
		t.Fatalf("loop passes without the scratchpad line %v: no miss on the third", wantPasses)
	}
	// Record what the replay delivers: every access before the loop,
	// the first pass, the passes it accounts in bulk, and the last pass,
	// each access reported as cache.ObserveSets would (one set).
	prev := uint32(0)
	observe := func(as ...uint32) {
		for _, a := range as {
			if line := a / 16; line != prev {
				prev = line
				rec.entry(line)
			}
		}
	}
	observe(pre...)
	observe(s...)
	rec.skipped(s[0], 11, passes-2)
	observe(s...)

	fetches := int64(len(pre) + passes*len(s))
	res := &Result{
		Fetches: fetches, CacheAccesses: fetches,
		CacheMisses: base.misses, CacheHits: fetches - base.misses,
		ColdMisses: base.cold, ConflictMisses: base.misses - base.cold,
		PerMO: make([]MOStats, len(set.Traces)),
	}
	for _, a := range pre {
		res.PerMO[owner[a]].Fetches++
	}
	for _, a := range s {
		res.PerMO[owner[a]].Fetches += passes
	}
	r0 := rec.finish(res)
	if !r0.seq {
		t.Fatal("record keeps no sequences")
	}
	alloc := make([]bool, len(set.Traces))
	alloc[rID] = true
	copyLay := mustLayout(t, set, alloc, layout.Options{Mode: layout.Copy, SPMSize: 64})
	got, _, ok := r0.derive(copyLay, Config{Cache: cc})
	if !ok {
		t.Fatal("copy run not derivable")
	}
	if got.CacheMisses != want.misses || got.ColdMisses != want.cold {
		t.Errorf("derived misses %d (cold %d), simulated %d (cold %d)",
			got.CacheMisses, got.ColdMisses, want.misses, want.cold)
	}
}

// TestDerivedRunsConcurrent: goroutines sharing one program profile,
// store and derive records of the same key at once (run it under the
// race detector); every run matches the serial replay.
func TestDerivedRunsConcurrent(t *testing.T) {
	p, set := patternFixture(t)
	opt := layout.Options{Mode: layout.Copy, SPMSize: 128}
	plainLay := mustLayout(t, set, nil, opt)
	hot := make([]bool, len(set.Traces))
	hot[hottestTrace(set)] = true
	copyLay := mustLayout(t, set, hot, opt)
	configs := []cache.Config{
		{SizeBytes: 64, LineBytes: 16, Assoc: 1},
		{SizeBytes: 128, LineBytes: 16, Assoc: 2},
		{SizeBytes: 128, LineBytes: 16, Assoc: 2, Replacement: cache.FIFO},
	}
	want := make([]*Result, len(configs))
	for i, cc := range configs {
		var err error
		if want[i], err = Run(p, copyLay, Config{Cache: cc, Reference: true}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Forget(p)
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(configs))
	for g := 0; g < 8; g++ {
		for i, cc := range configs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := Run(p, plainLay, Config{Cache: cc, TrackConflicts: true}); err != nil {
					errs <- err
					return
				}
				got, err := Run(p, copyLay, Config{Cache: cc})
				if err != nil {
					errs <- err
					return
				}
				if got.CacheMisses != want[i].CacheMisses || got.ColdMisses != want[i].ColdMisses ||
					got.SPMAccesses != want[i].SPMAccesses || got.Energy != want[i].Energy {
					errs <- fmt.Errorf("config %d: derived %+v, reference %+v", i, got, want[i])
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
