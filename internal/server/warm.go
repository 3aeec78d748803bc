package server

import (
	"sort"
	"sync"

	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/ir"
	"repro/internal/trace"
)

// Cross-request warm starts (DESIGN.md §13). The daemon sees families
// of related requests — the same program swept across scratchpad sizes
// or cache geometries by a design-space exploration client — and those
// are exactly the single-parameter-apart neighbors the experiment grids
// exploit. Every proven-optimal exact-tier CASA solve is recorded here;
// a later request for the same program whose hierarchy differs from a
// recorded one in exactly one parameter (cache geometry or scratchpad
// capacity) gets the donor's selection transferred and valued as a
// solver cutoff (experiments.Pipeline.TransferCutoff). Cutoffs only
// prune provably-worse subtrees, so answers are identical to cold
// solves — warm requests are just faster, and are counted by
// casa_server_warm_solves_total.

// warmKey identifies one solved hierarchy configuration. Programs are
// canonical instances (workload.Shared or the intern table), so pointer
// identity is the same-program test — the condition a transfer needs.
type warmKey struct {
	prog *ir.Program
	spec experiments.CacheSpec
	spm  int
}

// warmDonor is a recorded selection with the trace set it indexes.
// workload is the bundled-workload name when the donor's program is one
// (empty for interned custom programs) — it is what makes the donor
// snapshotable: a restore can rebuild the deterministic trace set from
// the name alone, where a custom program may be gone with the process.
// key is the donor's own configuration (for deterministic ordering and
// basis-partition gating); hot the solver state it can donate (nil for
// restored snapshots, which persist only the selection).
type warmDonor struct {
	key      warmKey
	set      *trace.Set
	inSPM    []bool
	workload string
	hot      *ilp.HotStart
}

// maxWarmDonors bounds the store. The table is an optimization, not a
// cache anyone is owed: when full it is simply cleared, which also
// releases trace sets of programs the intern table may have evicted.
const maxWarmDonors = 512

// warmStore holds one donor per solved configuration.
type warmStore struct {
	mu     sync.Mutex
	donors map[warmKey]warmDonor
}

// record stores a proven-optimal selection for k. workload names the
// bundled workload when there is one (snapshots only persist those);
// hot is the solver's transferable basis/pseudocost state (may be nil).
func (w *warmStore) record(k warmKey, workload string, set *trace.Set, inSPM []bool, hot *ilp.HotStart) {
	w.mu.Lock()
	if w.donors == nil || len(w.donors) >= maxWarmDonors {
		w.donors = make(map[warmKey]warmDonor)
	}
	w.donors[k] = warmDonor{key: k, set: set, inSPM: inSPM, workload: workload, hot: hot}
	w.mu.Unlock()
}

// clear drops every donor — the memory watchdog's last lever (later
// solves lose their warm start, nothing else).
func (w *warmStore) clear() int {
	w.mu.Lock()
	n := len(w.donors)
	w.donors = nil
	w.mu.Unlock()
	return n
}

// dump returns the snapshotable donors: those whose program is a
// bundled workload, so a restore can rebuild the trace set by name.
func (w *warmStore) dump() []snapWarmDonor {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []snapWarmDonor
	for k, d := range w.donors {
		if d.workload == "" {
			continue
		}
		out = append(out, snapWarmDonor{
			Workload:   d.workload,
			CacheBytes: k.spec.Size,
			LineBytes:  k.spec.Line,
			Assoc:      k.spec.Assoc,
			SPMBytes:   k.spm,
			InSPM:      d.inSPM,
		})
	}
	return out
}

// size returns the donor count.
func (w *warmStore) size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.donors)
}

// neighbors returns the donors for k's program whose hierarchy differs
// from k in exactly one parameter, sorted by configuration so donor
// tie-breaks never depend on map iteration order.
func (w *warmStore) neighbors(k warmKey) []warmDonor {
	w.mu.Lock()
	var out []warmDonor
	for dk, d := range w.donors {
		if dk.prog != k.prog {
			continue
		}
		cacheDiff := dk.spec != k.spec
		spmDiff := dk.spm != k.spm
		if cacheDiff != spmDiff {
			out = append(out, d)
		}
	}
	w.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return donorKeyLess(out[a].key, out[b].key) })
	return out
}

// donorKeyLess orders same-program donor configurations.
func donorKeyLess(a, b warmKey) bool {
	if a.spm != b.spm {
		return a.spm < b.spm
	}
	if a.spec.Size != b.spec.Size {
		return a.spec.Size < b.spec.Size
	}
	if a.spec.Line != b.spec.Line {
		return a.spec.Line < b.spec.Line
	}
	if a.spec.Assoc != b.spec.Assoc {
		return a.spec.Assoc < b.spec.Assoc
	}
	return a.spec.Policy < b.spec.Policy
}

// warmCutoff returns the tightest cutoff transferable to pipe from the
// recorded neighbors of k — minimum over donors, so the result does not
// depend on request arrival order — plus the hot solver state of the
// best partition-matching donor. A donor's basis and pseudocosts only
// map when its ILP shares variable identities with the new solve, which
// requires the same scratchpad capacity and cache line size (those fix
// the trace partition); cache-geometry neighbors qualify,
// scratchpad-size neighbors donate cutoffs only.
func (w *warmStore) warmCutoff(k warmKey, pipe *experiments.Pipeline) (float64, *ilp.HotStart, bool) {
	best, found := 0.0, false
	bestHot := 0.0
	var hot *ilp.HotStart
	for _, d := range w.neighbors(k) {
		v, ok := pipe.TransferCutoff(d.set, d.inSPM)
		if !ok {
			continue
		}
		if !found || v < best {
			best, found = v, true
		}
		if d.hot != nil && d.key.spm == k.spm && d.key.spec.Line == k.spec.Line &&
			(hot == nil || v < bestHot) {
			bestHot, hot = v, d.hot
		}
	}
	return best, hot, found
}
