// Trace: the compressed, execute-once form of a program run. The
// interpreter walks a workload exactly once and records the dynamic
// block sequence — not individual fetch addresses — as a run-length-
// encoded step list. Because blocks and step kinds are layout-
// independent, one Trace replays under any Layout: the memory-hierarchy
// simulator decodes it once per layout/cache configuration instead of
// re-executing the interpreter or storing a per-layout 4-byte-granular
// address stream (the pre-trace design cached ~20MB of raw addresses
// per (program, layout); a trace is a few kilobytes per program).
//
// Replay reproduces the exact fetch stream of Run: per step it emits the
// block's instruction run (bulk, via RunFetcher, when the sink supports
// it), and reconstructs the call stack so that appended fall-through
// jumps — including the subtle case of a return, whose jump belongs to
// the *popped caller*, not the returning block — are fetched at the
// same position and with the same memory object as a live run.
package sim

import (
	"repro/internal/ir"
	"repro/internal/obs"
)

// mTraceReplays counts trace replays process-wide
// (casa_trace_replays_total): each one stands for a full simulation run
// that skipped re-executing the interpreter.
var mTraceReplays = obs.GetCounter("casa_trace_replays_total")

// Trace is a run-length-encoded recording of one program execution: the
// dynamic block sequence with exit kinds. It is layout-independent and
// immutable once recorded; Replay is safe for concurrent use.
type Trace struct {
	// Parallel arrays, one entry per RLE step: the executed block
	// (packed func<<32|block), its instruction count, how control left
	// it, and how many times the step repeats consecutively (taken
	// self-loops compress to a single entry).
	refs   []uint64
	instrs []int32
	kinds  []StepKind
	counts []int64

	steps   int64 // total dynamic steps (sum of counts)
	fetches int64 // total block-instruction fetches (appended jumps excluded)
}

func packRef(ref ir.BlockRef) uint64 {
	return uint64(uint32(ref.Func))<<32 | uint64(uint32(ref.Block))
}

func unpackRef(pr uint64) ir.BlockRef {
	return ir.BlockRef{Func: ir.FuncID(uint32(pr >> 32)), Block: ir.BlockID(uint32(pr))}
}

// step is one RLE entry while a trace is being recorded.
type step struct {
	ref    uint64
	count  int64
	instrs int32
	kind   StepKind
}

// traceChunkSteps is the size of the largest recording chunk.
// Recording appends into chunks and joins them once into exactly sized
// arrays, so it allocates about twice what the finished trace keeps:
// growing the arrays themselves would allocate several times that, as
// Go grows large slices by 1.25x at a time.
const traceChunkSteps = 4096

// traceRecorder accumulates a trace's steps in chunks that start small
// (most test programs record a handful of steps) and double up to
// traceChunkSteps.
type traceRecorder struct {
	chunks  [][]step
	steps   int64
	fetches int64
}

// push appends one dynamic step, run-length-merging it into the previous
// entry when it repeats the same block and exit kind.
func (r *traceRecorder) push(ref ir.BlockRef, instrs int, kind StepKind) {
	r.steps++
	r.fetches += int64(instrs)
	pr := packRef(ref)
	cur := len(r.chunks) - 1
	if cur >= 0 {
		c := r.chunks[cur]
		if n := len(c) - 1; n >= 0 && c[n].ref == pr && c[n].kind == kind {
			c[n].count++
			return
		}
	}
	if cur < 0 || len(r.chunks[cur]) == cap(r.chunks[cur]) {
		size := 64
		if cur >= 0 {
			size = min(2*cap(r.chunks[cur]), traceChunkSteps)
		}
		r.chunks = append(r.chunks, make([]step, 0, size))
		cur++
	}
	r.chunks[cur] = append(r.chunks[cur], step{ref: pr, count: 1, instrs: int32(instrs), kind: kind})
}

// trace joins the chunks into an exactly sized Trace.
func (r *traceRecorder) trace() *Trace {
	n := 0
	for _, c := range r.chunks {
		n += len(c)
	}
	t := &Trace{
		refs:    make([]uint64, 0, n),
		instrs:  make([]int32, 0, n),
		kinds:   make([]StepKind, 0, n),
		counts:  make([]int64, 0, n),
		steps:   r.steps,
		fetches: r.fetches,
	}
	for _, c := range r.chunks {
		for _, s := range c {
			t.refs = append(t.refs, s.ref)
			t.instrs = append(t.instrs, s.instrs)
			t.kinds = append(t.kinds, s.kind)
			t.counts = append(t.counts, s.count)
		}
	}
	return t
}

// NumSteps returns the number of RLE entries.
func (t *Trace) NumSteps() int { return len(t.refs) }

// Step returns the i-th RLE entry: the executed block, its instruction
// count, how control left it, and the consecutive repeat count.
func (t *Trace) Step(i int) (ref ir.BlockRef, instrs int, kind StepKind, count int64) {
	return unpackRef(t.refs[i]), int(t.instrs[i]), t.kinds[i], t.counts[i]
}

// Steps returns the total dynamic step count (sum of repeats).
func (t *Trace) Steps() int64 { return t.steps }

// Fetches returns the block-instruction fetch count a replay delivers,
// excluding layout-appended jumps (those depend on the layout).
func (t *Trace) Fetches() int64 { return t.fetches }

// SizeBytes returns the memory the recording holds, measured as
// backing-array *capacity* — what the allocator committed, which is what
// the cache's eviction bound must charge.
func (t *Trace) SizeBytes() int {
	return 8*cap(t.refs) + 4*cap(t.instrs) + cap(t.kinds) + 8*cap(t.counts)
}

// RecordTrace executes p once and records its dynamic block sequence.
func RecordTrace(p *ir.Program, opts ...Option) (*Trace, error) {
	var r traceRecorder
	e := newExec(p, opts)
	err := e.run(
		func(ir.BlockRef, int) {},
		nil,
		nil,
		r.push,
	)
	if err != nil {
		return nil, err
	}
	return r.trace(), nil
}

// Replay decodes the trace under lay, delivering the exact fetch stream
// Run(p, lay, sink) would produce — same addresses, same memory objects,
// same order — and returns the fetch count. Sinks implementing
// RunFetcher receive each block's instruction run as one FetchRun call;
// appended jumps always arrive as individual Fetch calls because a jump
// need not be contiguous with its block under every Layout.
func (t *Trace) Replay(lay Layout, sink Fetcher) int64 {
	mTraceReplays.Inc()
	rf, bulk := sink.(RunFetcher)
	if !bulk {
		rf = scalarRuns{sink}
	}
	rr, repeats := rf.(RunRepeater)
	var total int64
	var stack []ir.BlockRef // return continuations, mirrors exec.run
	for i, pr := range t.refs {
		ref := unpackRef(pr)
		n := int(t.instrs[i])
		cnt := t.counts[i]
		base := lay.BlockBase(ref)
		mo := lay.BlockMO(ref)
		total += cnt * int64(n)
		switch t.kinds[i] {
		case StepTaken:
			// Taken self-loops are the only steps RLE merges, so cnt>1
			// means this exact run repeats back to back — hand the whole
			// burst to the sink when it can exploit the periodicity.
			if repeats {
				rr.FetchRunRepeat(base, n, mo, cnt)
			} else {
				for j := int64(0); j < cnt; j++ {
					rf.FetchRun(base, n, mo)
				}
			}
		case StepFall:
			jaddr, jok := lay.FallJump(ref)
			for j := int64(0); j < cnt; j++ {
				rf.FetchRun(base, n, mo)
				if jok {
					sink.Fetch(jaddr, mo)
					total++
				}
			}
		case StepCall:
			for j := int64(0); j < cnt; j++ {
				rf.FetchRun(base, n, mo)
				stack = append(stack, ref)
			}
		case StepReturn:
			for j := int64(0); j < cnt; j++ {
				rf.FetchRun(base, n, mo)
				if len(stack) == 0 {
					break // program-terminating return: always the last step
				}
				caller := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if jaddr, ok := lay.FallJump(caller); ok {
					sink.Fetch(jaddr, lay.BlockMO(caller))
					total++
				}
			}
		}
	}
	return total
}

// scalarRuns adapts a plain Fetcher to the RunFetcher shape Replay
// drives, unrolling each run into per-instruction Fetch calls.
type scalarRuns struct{ sink Fetcher }

func (s scalarRuns) Fetch(addr uint32, mo int) { s.sink.Fetch(addr, mo) }

func (s scalarRuns) FetchRun(base uint32, n int, mo int) {
	for j := 0; j < n; j++ {
		s.sink.Fetch(base+uint32(j*ir.InstrSize), mo)
	}
}
