// Memoization layer: because every simulation in this repository is
// deterministic, a program fully determines its profile and its dynamic
// block trace. The experiment engine runs the same workloads many times
// across figures — every study re-profiles its workload, and each grid
// cell replays the workload under several layouts — so both results are
// cached process-wide and shared across concurrent experiment cells.
//
// Keys: profiles and traces are both keyed by program identity
// (*ir.Program). A recorded Trace is layout-independent (it stores the
// dynamic block sequence, not addresses), so one entry serves every
// layout and cache configuration — the predecessor design cached raw
// per-(program, layout) address streams and needed a 128MB budget for
// what a handful of kilobyte-sized traces now cover. Programs handed to
// this layer must be treated as immutable; the bundled workloads and
// every pipeline consumer already are.
//
// All entries are built exactly once (singleflight) and are safe for
// concurrent use; recorded traces are immutable and replayed without
// locking. The trace cache keeps the byte-bounded LRU shape of the old
// stream cache (counting slice *capacity*, since that is what the
// allocator actually committed) so the bound and its metrics stay
// meaningful if trace sizes ever grow.
//
// A third, byte-bounded LRU memo holds simulation records: compact
// summaries a simulator keeps of one replay (memsim keeps one per
// conflict-profiling run), keyed by program plus a RecordKey, so later
// runs under the same key can be derived instead of replayed. sim only
// stores them; what a record holds is the simulator's business.
//
// The memo layers report into the default metrics registry:
// casa_profile_memo_{hits,misses}_total, casa_stream_cache_{hits,
// misses,evictions}_total and the casa_stream_cache_bytes gauge (the
// stream-cache names are kept for dashboard continuity; they account
// the trace cache now), and casa_sim_records_total,
// casa_sim_record_evictions_total and the casa_sim_record_bytes gauge.
package sim

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Memo metrics, resolved once.
var (
	mProfileHits   = obs.GetCounter("casa_profile_memo_hits_total")
	mProfileMisses = obs.GetCounter("casa_profile_memo_misses_total")
	mStreamHits    = obs.GetCounter("casa_stream_cache_hits_total")
	mStreamMisses  = obs.GetCounter("casa_stream_cache_misses_total")
	mStreamEvicts  = obs.GetCounter("casa_stream_cache_evictions_total")
	mStreamBytes   = obs.GetGauge("casa_stream_cache_bytes")
)

// ---- Profile memoization ---------------------------------------------------

// profileEntry is a singleflight slot for one program's profile.
type profileEntry struct {
	once sync.Once
	prof *Profile
	err  error
}

var profileMemo sync.Map // *ir.Program → *profileEntry

// CachedProfile is ProfileProgram with process-wide memoization: the first
// caller executes the program, every later caller (concurrent ones
// included) receives the same immutable Profile. The program must not be
// mutated after the first call.
func CachedProfile(p *ir.Program) (*Profile, error) {
	if fault.Hit(fault.MemoMiss) {
		// Injected memo miss: recompute without touching the cache. The
		// result is identical (simulation is deterministic); only the
		// memoization benefit is lost.
		mProfileMisses.Inc()
		return ProfileProgram(p)
	}
	slot, loaded := profileMemo.LoadOrStore(p, &profileEntry{})
	if loaded {
		mProfileHits.Inc()
	} else {
		mProfileMisses.Inc()
	}
	e := slot.(*profileEntry)
	e.once.Do(func() {
		e.prof, e.err = ProfileProgram(p)
		if e.err != nil {
			// Do not let a transient failure poison the memo forever: drop
			// the slot so a later caller can retry. CompareAndDelete only
			// removes OUR slot — a concurrent retry that already replaced
			// it is left alone.
			profileMemo.CompareAndDelete(p, slot)
		}
	})
	return e.prof, e.err
}

// ---- Trace memoization -----------------------------------------------------

// traceCacheCapBytes bounds the total bytes retained across cached
// traces, measured as backing-array capacity (Trace.SizeBytes). Traces
// are orders of magnitude smaller than the raw streams this cache used
// to hold, but the LRU bound is kept so pathological workloads (huge
// irregular step sequences) stay bounded. Variable for tests.
var traceCacheCapBytes = 128 << 20

type traceEntry struct {
	once    sync.Once
	t       *Trace
	err     error
	lastUse int64 // guarded by traceMu
}

var (
	traceMu    sync.Mutex
	traceCache = map[*ir.Program]*traceEntry{}
	traceTick  int64
	traceBytes int // total SizeBytes of completed entries, guarded by traceMu
)

// CachedTrace returns the recorded block trace for p, recording it on
// first use. Entries are evicted least-recently-used once the cache
// exceeds its byte budget; evicted traces remain valid for holders.
func CachedTrace(p *ir.Program) (*Trace, error) {
	if err := fault.ErrorAt(fault.StreamRead); err != nil {
		return nil, err
	}
	if fault.Hit(fault.MemoMiss) {
		// Injected memo miss: re-record outside the cache. Deterministic
		// simulation makes the replacement trace identical.
		mStreamMisses.Inc()
		return RecordTrace(p)
	}
	traceMu.Lock()
	e, ok := traceCache[p]
	if !ok {
		e = &traceEntry{}
		traceCache[p] = e
	}
	traceTick++
	e.lastUse = traceTick
	traceMu.Unlock()
	if ok {
		mStreamHits.Inc()
	} else {
		mStreamMisses.Inc()
	}

	e.once.Do(func() {
		e.t, e.err = RecordTrace(p)
		if e.err != nil {
			traceMu.Lock()
			delete(traceCache, p)
			traceMu.Unlock()
			return
		}
		traceMu.Lock()
		traceBytes += e.t.SizeBytes()
		evictTracesLocked(e)
		mStreamBytes.Set(int64(traceBytes))
		traceMu.Unlock()
	})
	return e.t, e.err
}

// evictTracesLocked drops completed entries, oldest first, until the
// byte budget holds; keep is never evicted. Call with traceMu held.
func evictTracesLocked(keep *traceEntry) {
	for traceBytes > traceCacheCapBytes {
		var oldKey *ir.Program
		var old *traceEntry
		for k, e := range traceCache {
			if e == keep || e.t == nil {
				continue
			}
			if old == nil || e.lastUse < old.lastUse {
				oldKey, old = k, e
			}
		}
		if old == nil {
			return
		}
		traceBytes -= old.t.SizeBytes()
		mStreamEvicts.Inc()
		delete(traceCache, oldKey)
	}
}

// Forget drops p's memoized profile, recorded trace and simulation
// records, releasing the memory they pin. The allocation server calls
// it when it evicts an interned client program: the memo layers are
// keyed by *ir.Program, so without an explicit release a long-running
// process would accumulate one profile and one trace per distinct
// program it ever saw. An entry whose computation is still in flight is
// left alone (its bytes are accounted only on completion); a later
// Forget can retire it.
func Forget(p *ir.Program) {
	profileMemo.Delete(p)
	traceMu.Lock()
	if e, ok := traceCache[p]; ok && e.t != nil {
		traceBytes -= e.t.SizeBytes()
		delete(traceCache, p)
		mStreamBytes.Set(int64(traceBytes))
	}
	traceMu.Unlock()
	recordMu.Lock()
	for k, e := range records {
		if k.prog == p {
			dropRecordLocked(k, e)
		}
	}
	recordMu.Unlock()
}

// ---- Simulation-record memoization -------------------------------------------

// A Record is a compact summary a simulator keeps of one replay so that
// later runs under the same key can be derived from it instead of
// replayed (memsim keeps one per conflict-profiling run). Records are
// immutable once stored.
type Record interface {
	// SizeBytes is the memory the record holds, charged to the budget.
	SizeBytes() int
}

// RecordKey identifies a record of one program: Image fingerprints the
// main-memory code image the replay ran under and Cache the cache
// configuration.
type RecordKey struct {
	Image, Cache uint64
}

// recordCacheCapBytes bounds the total bytes retained across records,
// the way traceCacheCapBytes bounds traces. Variable for tests.
var recordCacheCapBytes = 64 << 20

type recordMemoKey struct {
	prog *ir.Program
	RecordKey
}

type recordEntry struct {
	r       Record
	lastUse int64
}

var (
	mRecords      = obs.GetCounter("casa_sim_records_total")
	mRecordEvicts = obs.GetCounter("casa_sim_record_evictions_total")
	mRecordBytes  = obs.GetGauge("casa_sim_record_bytes")
	recordMu      sync.Mutex
	records       = map[recordMemoKey]*recordEntry{}
	recordTick    int64
	recordBytes   int
)

// CachedRecord returns the record stored for p under k, or nil. An
// injected memo miss (fault.MemoMiss) reports nil without looking.
func CachedRecord(p *ir.Program, k RecordKey) Record {
	if fault.Hit(fault.MemoMiss) {
		return nil
	}
	recordMu.Lock()
	defer recordMu.Unlock()
	e, ok := records[recordMemoKey{p, k}]
	if !ok {
		return nil
	}
	recordTick++
	e.lastUse = recordTick
	return e.r
}

// StoreRecord memoizes r for p under k, replacing any record already
// there, and evicts least-recently-used records until the byte budget
// holds again (r itself is never evicted by its own insertion).
func StoreRecord(p *ir.Program, k RecordKey, r Record) {
	mk := recordMemoKey{p, k}
	recordMu.Lock()
	defer recordMu.Unlock()
	if old, ok := records[mk]; ok {
		recordBytes -= old.r.SizeBytes()
	}
	recordTick++
	e := &recordEntry{r: r, lastUse: recordTick}
	records[mk] = e
	recordBytes += r.SizeBytes()
	mRecords.Inc()
	for recordBytes > recordCacheCapBytes {
		var oldKey recordMemoKey
		var old *recordEntry
		for k, c := range records {
			if c != e && (old == nil || c.lastUse < old.lastUse) {
				oldKey, old = k, c
			}
		}
		if old == nil {
			break
		}
		dropRecordLocked(oldKey, old)
		mRecordEvicts.Inc()
	}
	mRecordBytes.Set(int64(recordBytes))
}

// dropRecordLocked removes one record. Call with recordMu held.
func dropRecordLocked(k recordMemoKey, e *recordEntry) {
	recordBytes -= e.r.SizeBytes()
	delete(records, k)
	mRecordBytes.Set(int64(recordBytes))
}
