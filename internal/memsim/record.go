package memsim

// Derived runs. CASA copies traces, so every line left in main memory
// keeps the address, and therefore the cache set, it had in the
// conflict-profiling run. Sets are independent under direct mapping,
// LRU and FIFO (a set's contents depend only on the accesses that map to
// it), so a cache-only or copy-mode run over the same main image and
// cache differs from the profiling run only on the sets that scratchpad
// lines map to. The profiling run therefore keeps a record: its integer
// counters, the owning trace of every image line, and for every set the
// order in which distinct lines reached it (which determines the set's
// misses). A later run under the same key is derived from the record: a
// plain run is the record re-finalized with its own cost model, and a
// copy-mode run keeps the recorded outcome on every set no scratchpad
// line maps to and re-simulates only the other sets' recorded sequences
// with the scratchpad lines removed.

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/sim"
)

// mSimDerived counts runs derived from a record instead of replayed.
var mSimDerived = obs.GetCounter("casa_sim_derived_runs_total")

// record is the compact outcome of one conflict-profiling run.
type record struct {
	// res holds the run's integer counters and per-object split (no
	// conflicts, energy or cache state).
	res Result

	// The fields below back copy-mode derivation; seq is false (and
	// they are empty) when the record cannot serve it (see
	// newRecorder).
	seq     bool
	assoc   int
	lru     bool
	setBits uint
	loLine  uint32  // absolute line number of the image's first line
	lineMO  []int32 // owning trace per image line, -1 for padding
	// Set s's sequence is entries off[s]:off[s+1] of tags8 (or tags16
	// when a set holds more than 256 image lines). An entry is the
	// line's tag relative to the image's first tag; back-to-back
	// repeats are merged.
	off    []uint32
	tags8  []uint8
	tags16 []uint16
}

// SizeBytes implements sim.Record.
func (r *record) SizeBytes() int {
	return 40*len(r.res.PerMO) + 4*len(r.lineMO) + 4*len(r.off) +
		len(r.tags8) + 2*len(r.tags16) + 160
}

// recordKey is the memo key of runs over lay under cfg, and whether such
// a run could be recorded or derived at all: it needs the trace-replay
// engine with default options, an L1 and nothing else besides the
// scratchpad, and a scratchpad window clear of the main image (a window
// overlapping the image would serve main-image fetches).
func recordKey(lay *layout.Layout, cfg Config, opts []sim.Option) (sim.RecordKey, bool) {
	if cfg.Reference || len(opts) > 0 || cfg.Cache.SizeBytes == 0 ||
		cfg.L2.SizeBytes > 0 || cfg.LoopCache != nil {
		return sim.RecordKey{}, false
	}
	imgBase, imgSize := lay.MainImageRange()
	if spmBase, spmSize := lay.SPMWindow(); spmSize > 0 {
		spmEnd := uint64(spmBase) + uint64(spmSize)
		if spmEnd > uint64(imgBase) && uint64(spmBase) < uint64(imgBase)+uint64(imgSize) {
			return sim.RecordKey{}, false
		}
	}
	return sim.RecordKey{Image: lay.MainFingerprint(), Cache: cfg.Cache.Fingerprint()}, true
}

// plain reports whether no trace of lay executes from the scratchpad.
func plain(lay *layout.Layout) bool {
	for id := range lay.Set().Traces {
		if lay.InSPM(id) {
			return false
		}
	}
	return true
}

// derive computes the run of lay under cfg from the record, reporting
// false when the run needs a full replay. It returns the number of
// sequence entries re-simulated.
func (r *record) derive(lay *layout.Layout, cfg Config) (*Result, int64, bool) {
	if cfg.TrackConflicts || cfg.KeepCache {
		return nil, 0, false
	}
	res := r.res
	res.PerMO = append([]MOStats(nil), r.res.PerMO...)
	if plain(lay) {
		return &res, 0, true
	}
	if !r.seq || lay.Mode() != layout.Copy {
		return nil, 0, false
	}

	spm := make([]bool, len(res.PerMO))
	for id := range spm {
		if lay.InSPM(id) {
			spm[id] = true
			st := &res.PerMO[id]
			*st = MOStats{Fetches: st.Fetches, SPM: st.Fetches}
			res.SPMAccesses += st.Fetches
		}
	}
	nSets := len(r.off) - 1
	affected := make([]bool, nSets)
	for idx, mo := range r.lineMO {
		if mo >= 0 && spm[mo] {
			affected[(r.loLine+uint32(idx))&uint32(nSets-1)] = true
		}
	}

	// On each affected set, replace the recorded outcome (the whole
	// sequence simulated again) by the outcome without the scratchpad
	// lines.
	misses, cold := r.res.CacheMisses, r.res.ColdMisses
	var entries int64
	full, kept := newSetSim(r.assoc, r.lru), newSetSim(r.assoc, r.lru)
	tagBase := r.loLine >> r.setBits
	for s, hit := range affected {
		if !hit {
			continue
		}
		full.reset()
		kept.reset()
		lo, hi := int(r.off[s]), int(r.off[s+1])
		entries += int64(hi - lo)
		for i := lo; i < hi; i++ {
			var tag uint32
			if r.tags8 != nil {
				tag = uint32(r.tags8[i])
			} else {
				tag = uint32(r.tags16[i])
			}
			idx := ((tag+tagBase)<<r.setBits | uint32(s)) - r.loLine
			mo := r.lineMO[idx]
			if !full.access(idx) {
				misses--
				if !spm[mo] {
					res.PerMO[mo].Misses--
				}
			}
			if !spm[mo] && !kept.access(idx) {
				misses++
				res.PerMO[mo].Misses++
			}
		}
		cold += kept.cold - full.cold
	}

	for id := range res.PerMO {
		if st := &res.PerMO[id]; !spm[id] {
			st.Hits = st.Fetches - st.Misses
		}
	}
	res.CacheAccesses = res.Fetches - res.SPMAccesses
	res.CacheMisses = misses
	res.CacheHits = res.CacheAccesses - misses
	res.ColdMisses = cold
	res.ConflictMisses = misses - cold
	return &res, entries, true
}

// setSim simulates one cache set over image line indices, with the
// replacement rules of cache.Cache: fill an invalid way first (a cold
// miss), else evict the smallest stamp (last use under LRU, fill time
// under FIFO).
type setSim struct {
	ways   []uint32 // line+1, 0 when invalid
	stamps []uint64
	clock  uint64
	lru    bool
	cold   int64
}

func newSetSim(assoc int, lru bool) *setSim {
	return &setSim{ways: make([]uint32, assoc), stamps: make([]uint64, assoc), lru: lru}
}

func (s *setSim) reset() {
	clear(s.ways)
	s.cold = 0
}

// access touches line and reports whether it hit.
func (s *setSim) access(line uint32) bool {
	s.clock++
	for i, w := range s.ways {
		if w == line+1 {
			if s.lru {
				s.stamps[i] = s.clock
			}
			return true
		}
	}
	victim := 0
	for i, w := range s.ways {
		if w == 0 {
			victim = i
			s.cold++
			break
		}
		if s.stamps[i] < s.stamps[victim] {
			victim = i
		}
	}
	s.ways[victim] = line + 1
	s.stamps[victim] = s.clock
	return false
}

// recorder builds a record's set sequences during a conflict-profiling
// run, appending each entry to its set's queue of recycled chunks.
// Under direct mapping a set holds only its latest line, so its entries
// are exactly its misses and are taken on the miss path. Associative
// sets also change on hits (LRU order), so their entries come from
// cache.ObserveSets.
type recorder struct {
	lineShift uint
	setMask   uint32
	setBits   uint
	loLine    uint32
	tagBase   uint32 // the image's first tag
	wide      bool   // tags need 16 bits
	assoc     int
	fifo      bool
	lineMO    []int32
	sets      []setQueue
}

// setQueue is one set's entries: full chunks, then n entries of cur.
type setQueue struct {
	full [][]uint16
	cur  []uint16
	n    int
}

// Queue chunks are recycled through a free list that, unlike a
// sync.Pool, survives garbage collections: a profiling run's entries
// (about one per miss) live only until its record is built, so without
// reuse they would be the larger part of what a record allocates. The
// list keeps at most chunkFreeMax chunks (4 MB).
const (
	chunkLen     = 512
	chunkFreeMax = 4096
)

var chunkFree struct {
	sync.Mutex
	chunks [][]uint16
}

func getChunk() []uint16 {
	chunkFree.Lock()
	defer chunkFree.Unlock()
	if n := len(chunkFree.chunks); n > 0 {
		c := chunkFree.chunks[n-1]
		chunkFree.chunks = chunkFree.chunks[:n-1]
		return c
	}
	return make([]uint16, chunkLen)
}

func putChunks(cs [][]uint16) {
	chunkFree.Lock()
	defer chunkFree.Unlock()
	n := min(len(cs), chunkFreeMax-len(chunkFree.chunks))
	chunkFree.chunks = append(chunkFree.chunks, cs[:n]...)
}

// newRecorder prepares the sequences of a profiling run over lay, or
// returns nil when the record cannot serve copy-mode derivation: Random
// replacement with associativity above 1, more than 65536 image lines
// per set, or an image line holding code of two traces.
func newRecorder(lay *layout.Layout, cfg cache.Config) *recorder {
	if cfg.Assoc > 1 && cfg.Replacement == cache.Random {
		return nil
	}
	base, size := lay.MainImageRange()
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	setBits := uint(0)
	for 1<<setBits < cfg.Sets() {
		setBits++
	}
	lo := base >> shift
	hi := (base + uint32(max(size, 1)) - 1) >> shift
	if hi>>setBits-lo>>setBits > 0xffff {
		return nil
	}
	lineMO := lineOwners(lay, lo, int(hi-lo+1), shift)
	if lineMO == nil {
		return nil
	}
	return &recorder{
		lineShift: shift,
		setMask:   uint32(cfg.Sets() - 1),
		setBits:   setBits,
		loLine:    lo,
		tagBase:   lo >> setBits,
		wide:      hi>>setBits-lo>>setBits > 0xff,
		assoc:     cfg.Assoc,
		fifo:      cfg.Replacement == cache.FIFO,
		lineMO:    lineMO,
		sets:      make([]setQueue, cfg.Sets()),
	}
}

// lineOwners maps every image line to the trace whose code it holds (-1
// for padding), or returns nil when a line holds code of two traces.
func lineOwners(lay *layout.Layout, loLine uint32, n int, shift uint) []int32 {
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	for _, t := range lay.Set().Traces {
		base, _ := lay.MainImageBase(t.ID)
		if t.RawBytes == 0 {
			continue
		}
		for line := base >> shift; line <= (base+uint32(t.RawBytes)-1)>>shift; line++ {
			if o := &owner[line-loLine]; *o < 0 {
				*o = int32(t.ID)
			} else if *o != int32(t.ID) {
				return nil
			}
		}
	}
	return owner
}

// entry notes that line reached its set after a different line.
func (r *recorder) entry(line uint32) {
	q := &r.sets[line&r.setMask]
	if q.n == len(q.cur) {
		q.next()
	}
	q.cur[q.n] = uint16(line>>r.setBits - r.tagBase)
	q.n++
}

func (q *setQueue) next() {
	if q.cur != nil {
		q.full = append(q.full, q.cur)
	}
	q.cur = getChunk()
	q.n = 0
}

// skipped notes passes the replay accounted in bulk (FetchRunRepeat's
// steady state): count repeats of the all-hit run [addr, addr+4n).
// Under LRU they need no entries: removing lines from a sequence can
// only shorten stack distances, so the passes stay all-hit in every
// derived run, and the final pass, which is recorded, leaves the same
// recency order. FIFO has no such inclusion property: without the
// scratchpad lines a loop the profiling run found settled can take
// three passes to settle (TestFIFOSkippedPassesRecorded), so a set that
// the run visits with two or more lines gets every pass recorded.
func (r *recorder) skipped(addr uint32, n int, count int64) {
	if !r.fifo {
		return
	}
	first := addr >> r.lineShift
	last := (addr + uint32(4*(n-1))) >> r.lineShift
	nSets := r.setMask + 1
	for ; count > 0 && last-first >= nSets; count-- {
		// Each pass reaches a set once per run line mapping to it; a
		// line alone in its set repeats the set's latest line.
		for line := first; line <= last; line++ {
			if line >= first+nSets || line+nSets <= last {
				r.entry(line)
			}
		}
	}
}

// finish builds the record of a profiling run with result res. A nil
// recorder yields a record that serves plain runs only.
func (r *recorder) finish(res *Result) *record {
	rec := &record{res: Result{
		Fetches:        res.Fetches,
		CacheAccesses:  res.CacheAccesses,
		CacheHits:      res.CacheHits,
		CacheMisses:    res.CacheMisses,
		ColdMisses:     res.ColdMisses,
		ConflictMisses: res.ConflictMisses,
		PerMO:          append([]MOStats(nil), res.PerMO...),
	}}
	if r == nil {
		return rec
	}
	off := make([]uint32, len(r.sets)+1)
	for s, q := range r.sets {
		off[s+1] = off[s] + uint32(len(q.full)*chunkLen+q.n)
	}
	if r.wide {
		rec.tags16 = make([]uint16, off[len(r.sets)])
		gather(r, rec.tags16, off)
	} else {
		rec.tags8 = make([]uint8, off[len(r.sets)])
		gather(r, rec.tags8, off)
	}
	rec.seq = true
	rec.assoc = r.assoc
	rec.lru = !r.fifo
	rec.setBits = r.setBits
	rec.loLine = r.loLine
	rec.lineMO = r.lineMO
	rec.off = off
	return rec
}

// gather copies every set's queue to dst[off[s]:off[s+1]] and returns
// the chunks to the free list.
func gather[T uint8 | uint16](r *recorder, dst []T, off []uint32) {
	for s, q := range r.sets {
		if q.cur == nil {
			continue
		}
		q.full = append(q.full, q.cur)
		d := dst[off[s]:off[s+1]]
		for i, c := range q.full {
			if i == len(q.full)-1 {
				c = c[:q.n]
			}
			for j, tag := range c {
				d[j] = T(tag)
			}
			d = d[len(c):]
		}
		putChunks(q.full)
	}
}
