package ilp

import "math"

// Factored-basis bounded-variable revised dual simplex: the node LP
// engine of branch & bound.
//
// The branch & bound loop changes nothing but variable bounds between
// node LPs. Dual feasibility of a basis does not depend on bounds at
// all, so one engine instance — basis, factorization and reduced costs
// — persists across the whole tree: after a bound change the previous
// optimal basis is still dual feasible and typically a handful of dual
// pivots away from the new optimum, even when best-bound search jumps to
// a distant part of the tree. Wrong-sign reduced costs are repaired by
// bound flips, and the dual ratio test is bounded. The dense two-phase
// tableau (simplex.go) remains SolveLP's engine and the per-node
// fallback.
//
// Standard form: min cᵀx s.t. Ax + s = b, with one slack per row
// (LE: s ∈ [0,∞), GE: s ∈ (−∞,0], EQ: s ∈ [0,0]) and every structural
// column boxed on the side its reduced cost demands. Columns are stored
// sparse.
//
// In the CASA formulation almost all basic columns are singletons —
// slacks and linearization L's touch one row each — so the basis is, up
// to permutation, block upper triangular
//
//	P·B·Q = [ U  F ]   U: triangular, from peeled singleton columns
//	        [ 0  G ]   G: dense k×k "bump" of the rest (k ≪ m)
//
// (measured on the fig4 grid: k ≈ 105 of m = 422 at SPM 128, k ≈ 23 on
// average at SPM 512). fsx keeps that factorization of a basis snapshot
// B0 plus a product-form eta file for the pivots since:
//
//	B⁻¹ = E_t ··· E_1 · B0⁻¹
//
// FTRAN/BTRAN cost O(t·m + k² + nnz); a pivot appends one eta in O(m)
// instead of updating a dense inverse in O(m²); refactorization peels
// the triangle in O(nnz) and inverts only the bump in O(k³) instead of
// O(m³).
//
// fsx also honors an objective limit: at every dual-feasible iterate
// the working point minimizes cᵀx over the relaxation that drops the
// basic variables' bounds, so cᵀx is a valid lower bound on the LP
// optimum (weak duality). When a caller-installed limit is exceeded the
// node cannot beat the known cutoff and solve returns stObjLimit
// immediately, mid-LP.

// Nonbasic/basic column states.
const (
	nbLower int8 = iota // nonbasic at lower bound
	nbUpper             // nonbasic at upper bound
	inBasis
)

// spCol is a sparse constraint-matrix column.
type spCol struct {
	rows []int32
	vals []float64
}

const (
	// fsxRefactorEvery bounds the eta file: beyond this, the O(t·m)
	// transform cost outgrows the O(k³) refactorization it avoids.
	fsxRefactorEvery = 64
	// pivTol is the minimum |alpha| for a column to be an entering
	// candidate; smaller pivots are numerically meaningless.
	pivTol = 1e-7
	// dualTol is the reduced-cost feasibility tolerance.
	dualTol = 1e-7
)

// etaRec is one product-form update: the FTRAN'd entering column (held
// sparse, ascending positions) and the pivot row r at the time of the
// pivot (piv equals the column's entry at r). Storing only nonzeros
// changes nothing numerically — the dense form skips zeros too — but
// the eta file is applied twice per pivot over its whole length, so its
// density is the engine's dominant cost.
type etaRec struct {
	r   int32
	piv float64
	idx []int32
	val []float64
}

type fsx struct {
	n, m int // structural columns, rows

	cols   []spCol   // n structural + m slack columns
	c      []float64 // minimization-space costs, len n+m
	b      []float64 // row right-hand sides
	lo, hi []float64 // len n+m; structural part overwritten per node

	basis  []int     // basic column per position (position i ↔ row slot i)
	status []int8    // per column
	xB     []float64 // basic variable values, by position
	d      []float64 // reduced costs (0 for basic columns)

	// B0 factorization (basis snapshot at the last refactorization).
	factCol     []int32   // basic model column per position at snapshot
	peelPos     []int32   // peeled positions, in peel order
	peelRow     []int32   // row assigned to each peeled position
	peelDiag    []float64 // that column's coefficient in its row
	bumpPos     []int32   // unpeeled positions (bump columns), position order
	bumpRow     []int32   // uncovered rows (bump rows), row order
	rowAssigned []int32   // row → peel index, -1 for bump rows
	rowBump     []int32   // row → bump row index, -1 for assigned rows
	ginv        []float64 // dense k×k inverse of the bump block
	k           int

	etas []etaRec // truncated, not freed, on refactor; idx/val reuse capacity

	// scratch
	alpha []float64 // pivot row in nonbasic columns, len n+m
	rho   []float64 // BTRAN'd unit row, row space, len m
	w     []float64 // FTRAN'd entering column, position space, len m
	pv    []float64 // position-space scratch, len m
	rv    []float64 // row-space scratch, len m
	bs    []float64 // bump scratch, len m

	costed []int32 // columns with c != 0, for objective evaluation

	objLimit     float64
	maxIter      int // pivot cap per solve; beyond it solve reports Aborted
	iters        int // lifetime pivot count
	sinceRefresh int
	tol          float64
}

// newFSX builds the engine for md, or returns nil when some column
// cannot be placed dual-feasibly at a finite bound (free variables, or
// an infinite bound on the side the objective pulls toward); such
// models take the dense path instead.
func newFSX(md *Model, tol float64) *fsx {
	if tol <= 0 {
		tol = defaultTol
	}
	n, m := md.NumVars(), len(md.cons)
	tot := n + m
	e := &fsx{
		n: n, m: m,
		cols: make([]spCol, tot),
		c:    make([]float64, tot),
		b:    make([]float64, m),
		lo:   make([]float64, tot),
		hi:   make([]float64, tot),

		basis:  make([]int, m),
		status: make([]int8, tot),
		xB:     make([]float64, m),
		d:      make([]float64, tot),

		factCol:     make([]int32, m),
		rowAssigned: make([]int32, m),
		rowBump:     make([]int32, m),

		alpha: make([]float64, tot),
		rho:   make([]float64, m),
		w:     make([]float64, m),
		pv:    make([]float64, m),
		rv:    make([]float64, m),
		bs:    make([]float64, m),

		objLimit: math.Inf(1),
		maxIter:  2000 + 50*tot,
		tol:      tol,
	}
	sign := 1.0
	if md.sense == Maximize {
		sign = -1
	}
	for _, t := range md.obj.Terms {
		e.c[t.Var] += sign * t.Coef
	}
	copy(e.lo, md.lo)
	copy(e.hi, md.hi)

	// Assemble sparse columns row by row, merging duplicate variable
	// references within a row.
	tmp := make([]float64, n)
	var touched []int
	for i, con := range md.cons {
		e.b[i] = con.RHS - con.Expr.Const
		touched = touched[:0]
		for _, t := range con.Expr.Terms {
			if tmp[t.Var] == 0 {
				touched = append(touched, int(t.Var))
			}
			tmp[t.Var] += t.Coef
		}
		for _, j := range touched {
			if v := tmp[j]; v != 0 {
				e.cols[j].rows = append(e.cols[j].rows, int32(i))
				e.cols[j].vals = append(e.cols[j].vals, v)
			}
			tmp[j] = 0
		}
		s := n + i
		e.cols[s] = spCol{rows: []int32{int32(i)}, vals: []float64{1}}
		switch con.Rel {
		case LE:
			e.lo[s], e.hi[s] = 0, math.Inf(1)
		case GE:
			e.lo[s], e.hi[s] = math.Inf(-1), 0
		case EQ:
			e.lo[s], e.hi[s] = 0, 0
		}
	}
	for j := 0; j < tot; j++ {
		if e.c[j] != 0 {
			e.costed = append(e.costed, int32(j))
		}
	}
	if !e.reset() {
		return nil
	}
	return e
}

// factorStats reports the current factorization shape for diagnostics:
// peeled singleton columns, dense bump dimension, and eta-file depth
// since the last refactorization.
func (e *fsx) factorStats() (peeled, bumpK, etaDepth int) {
	return len(e.peelPos), e.k, len(e.etas)
}

// reducedCost returns the current reduced cost of column j (valid after
// a solve that ended Optimal; 0 for basic columns).
func (e *fsx) reducedCost(j int) float64 { return e.d[j] }

// installBasis replaces the current basis with the given set of basic
// columns (structural and slack indices; exactly one per row), places
// nonbasic structural columns per atUpper (falling back to the
// crash-basis placement rule when the requested bound is infinite),
// refactors, and repairs dual feasibility: wrong-sign nonbasics with a
// finite opposite bound are flipped (free — duals are unchanged), the
// rest are pivoted into the basis under a bounded budget. On any
// failure — singular factorization, an unplaceable column, or residual
// dual infeasibility after the budget — the engine resets to the cold
// crash basis and reports ok=false; pivots counts the repair pivots
// performed either way.
func (e *fsx) installBasis(basic []int, atUpper []bool) (pivots int, ok bool) {
	tot := e.n + e.m
	if len(basic) != e.m {
		return 0, false
	}
	inB := make([]bool, tot)
	for _, j := range basic {
		if j < 0 || j >= tot || inB[j] {
			return 0, false
		}
		inB[j] = true
	}
	// A transferred basis is usually only partially shared — columns the
	// donor had and this model lacks were already replaced by slacks, and
	// that substitution can leave the set rank-deficient. Repair it to
	// full rank before factoring; unrepairable sets fall back cold.
	basic = e.repairBasic(basic)
	if basic == nil {
		return 0, false
	}
	for j := range inB {
		inB[j] = false
	}
	for _, j := range basic {
		inB[j] = true
	}
	for j := 0; j < e.n; j++ {
		if inB[j] {
			continue
		}
		switch {
		case atUpper[j] && !math.IsInf(e.hi[j], 1):
			e.status[j] = nbUpper
		case !math.IsInf(e.lo[j], -1):
			e.status[j] = nbLower
		case !math.IsInf(e.hi[j], 1):
			e.status[j] = nbUpper
		default:
			return 0, false
		}
	}
	for i := 0; i < e.m; i++ {
		s := e.n + i
		if inB[s] {
			continue
		}
		// A slack's nonbasic bound is forced by its relation: LE/EQ rest
		// at 0 = lo, GE at 0 = hi.
		if math.IsInf(e.hi[s], 1) {
			e.status[s] = nbLower
		} else {
			e.status[s] = nbUpper
		}
	}
	for i, j := range basic {
		e.basis[i] = j
		e.status[j] = inBasis
	}
	if !e.refactor() {
		return 0, e.failInstall()
	}
	e.computeDuals()

	// Dual repair. Budget covers the pathological case where many donor
	// columns price wrong under this model; in the intended transfers
	// (identical structure, different RHS) duals are independent of b and
	// the donor basis arrives dual feasible, so this loop does nothing.
	budget := e.m/4 + 16
	for {
		q, worst := -1, dualTol
		for j := 0; j < tot; j++ {
			if e.status[j] == inBasis || e.hi[j]-e.lo[j] < 1e-9 {
				continue
			}
			d := e.d[j]
			if e.status[j] == nbLower && d < -worst {
				// Flip to the upper bound when finite; duals unchanged.
				if !math.IsInf(e.hi[j], 1) {
					e.status[j] = nbUpper
					continue
				}
				q, worst = j, -d
			} else if e.status[j] == nbUpper && d > worst {
				if !math.IsInf(e.lo[j], -1) {
					e.status[j] = nbLower
					continue
				}
				q, worst = j, d
			}
		}
		if q < 0 {
			break // dual feasible
		}
		if pivots >= budget {
			return pivots, e.failInstall()
		}
		// Pivot q in at the largest-magnitude row whose leaving column can
		// rest at a finite bound; the recomputed duals zero d[q].
		e.ftranCol(q)
		r, best := -1, 1e-8
		for i := 0; i < e.m; i++ {
			lb := e.basis[i]
			if math.IsInf(e.lo[lb], -1) && math.IsInf(e.hi[lb], 1) {
				continue
			}
			if v := math.Abs(e.w[i]); v > best {
				r, best = i, v
			}
		}
		if r < 0 {
			return pivots, e.failInstall()
		}
		lb := e.basis[r]
		if !math.IsInf(e.lo[lb], -1) {
			e.status[lb] = nbLower
		} else {
			e.status[lb] = nbUpper
		}
		e.status[q] = inBasis
		e.basis[r] = q
		e.pushEta(r, e.w[r])
		pivots++
		e.iters++
		e.sinceRefresh++
		if e.sinceRefresh >= fsxRefactorEvery {
			if !e.refactor() {
				return pivots, e.failInstall()
			}
		}
		e.computeDuals()
	}
	e.computeXB()
	return pivots, true
}

// repairBasic makes a proposed basic-column set nonsingular: dense
// Gaussian elimination with partial pivoting ranks the proposed columns
// in order, and every column that finds no pivot (it is dependent on
// the columns before it, or empty) is replaced by the slack of a
// pivotless row — a unit column independent of everything chosen so
// far. Returns nil when no full basis results (a replacement slack was
// already in the proposed set, which cannot happen for sets produced by
// mapHotBasis: a basic slack's row is covered, so its slack is never a
// replacement candidate). O(m³) dense on the CASA models' row counts —
// noise against the branch & bound it warm-starts.
func (e *fsx) repairBasic(basic []int) []int {
	m := e.m
	a := make([]float64, m*m)
	for c, j := range basic {
		col := &e.cols[j]
		for u, r := range col.rows {
			a[int(r)*m+c] = col.vals[u]
		}
	}
	rowUsed := make([]bool, m)
	dependent := make([]bool, m)
	for c := 0; c < m; c++ {
		pr, best := -1, 1e-9
		for r := 0; r < m; r++ {
			if !rowUsed[r] {
				if v := math.Abs(a[r*m+c]); v > best {
					pr, best = r, v
				}
			}
		}
		if pr < 0 {
			dependent[c] = true
			continue
		}
		rowUsed[pr] = true
		piv := a[pr*m+c]
		for c2 := c + 1; c2 < m; c2++ {
			f := a[pr*m+c2] / piv
			if f == 0 {
				continue
			}
			for r := 0; r < m; r++ {
				if !rowUsed[r] {
					a[r*m+c2] -= f * a[r*m+c]
				}
			}
			a[pr*m+c2] = 0
		}
	}
	out := make([]int, 0, m)
	inOut := make([]bool, e.n+m)
	for c, j := range basic {
		if !dependent[c] {
			out = append(out, j)
			inOut[j] = true
		}
	}
	for r := 0; r < m && len(out) < m; r++ {
		if !rowUsed[r] && !inOut[e.n+r] {
			out = append(out, e.n+r)
			inOut[e.n+r] = true
		}
	}
	if len(out) != m {
		return nil
	}
	return out
}

// failInstall restores the cold crash basis after a failed installBasis
// and reports false for its caller's convenience. reset cannot fail
// here: installBasis runs before any node tightens bounds, so the
// engine's bounds are the ones newFSX already crash-placed once.
func (e *fsx) failInstall() bool {
	e.reset()
	return false
}

// reset installs the all-slack basis and the trivial factorization,
// placing each structural column dual-feasibly: at its lower bound when
// the cost pulls down, upper when it pulls up. Reports false when a
// required bound is infinite.
func (e *fsx) reset() bool {
	for j := 0; j < e.n; j++ {
		switch {
		case e.c[j] > e.tol:
			if math.IsInf(e.lo[j], -1) {
				return false
			}
			e.status[j] = nbLower
		case e.c[j] < -e.tol:
			if math.IsInf(e.hi[j], 1) {
				return false
			}
			e.status[j] = nbUpper
		default:
			if !math.IsInf(e.lo[j], -1) {
				e.status[j] = nbLower
			} else if !math.IsInf(e.hi[j], 1) {
				e.status[j] = nbUpper
			} else {
				return false
			}
		}
	}
	for i := 0; i < e.m; i++ {
		e.basis[i] = e.n + i
		e.status[e.n+i] = inBasis
	}
	copy(e.d, e.c) // slack basis: y = 0
	for i := 0; i < e.m; i++ {
		e.d[e.n+i] = 0
	}
	// An all-slack basis peels completely: k = 0, no etas.
	if !e.refactor() {
		return false // cannot happen: slack columns are unit singletons
	}
	return true
}

// setBounds installs a node's structural bounds.
func (e *fsx) setBounds(lo, hi []float64) {
	copy(e.lo[:e.n], lo)
	copy(e.hi[:e.n], hi)
}

// nbValue returns the resting value of a nonbasic column.
func (e *fsx) nbValue(j int) float64 {
	if e.status[j] == nbUpper {
		return e.hi[j]
	}
	return e.lo[j]
}

// releaseEtas empties the eta file. The records (and their idx/val
// backing arrays) stay in the slice's capacity for reuse by pushEta.
func (e *fsx) releaseEtas() {
	e.etas = e.etas[:0]
}

// pushEta appends the current FTRAN'd column e.w as a product-form
// update, compressing it to its nonzeros.
func (e *fsx) pushEta(r int, piv float64) {
	var et *etaRec
	if len(e.etas) < cap(e.etas) {
		e.etas = e.etas[:len(e.etas)+1]
		et = &e.etas[len(e.etas)-1]
		et.idx, et.val = et.idx[:0], et.val[:0]
	} else {
		e.etas = append(e.etas, etaRec{})
		et = &e.etas[len(e.etas)-1]
	}
	et.r, et.piv = int32(r), piv
	for j, wj := range e.w {
		if wj != 0 {
			et.idx = append(et.idx, int32(j))
			et.val = append(et.val, wj)
		}
	}
}

// refactor snapshots the current basis and rebuilds the block-triangular
// factorization: repeatedly peel basic columns with exactly one nonzero
// in a still-uncovered row (slacks and L's peel immediately; peeling
// their rows exposes further singletons), then invert the remaining
// bump densely. Reports false on a (numerically) singular bump.
func (e *fsx) refactor() bool {
	m := e.m
	for i := 0; i < m; i++ {
		e.factCol[i] = int32(e.basis[i])
		e.rowAssigned[i] = -1
		e.rowBump[i] = -1
	}
	e.peelPos = e.peelPos[:0]
	e.peelRow = e.peelRow[:0]
	e.peelDiag = e.peelDiag[:0]
	e.bumpPos = e.bumpPos[:0]
	e.bumpRow = e.bumpRow[:0]

	// Per-position count of entries in uncovered rows, and row → positions
	// adjacency over the basic columns.
	cnt := make([]int32, m)
	deg := make([]int32, m)
	for p := 0; p < m; p++ {
		col := &e.cols[e.basis[p]]
		if len(col.rows) == 0 {
			return false // structurally singular
		}
		cnt[p] = int32(len(col.rows))
		for _, r := range col.rows {
			deg[r]++
		}
	}
	rowStart := make([]int32, m+1)
	for r := 0; r < m; r++ {
		rowStart[r+1] = rowStart[r] + deg[r]
	}
	rowPosts := make([]int32, rowStart[m])
	fill := append([]int32(nil), rowStart[:m]...)
	for p := 0; p < m; p++ {
		col := &e.cols[e.basis[p]]
		for _, r := range col.rows {
			rowPosts[fill[r]] = int32(p)
			fill[r]++
		}
	}

	assigned := make([]bool, m)
	covered := make([]bool, m)
	queue := make([]int32, 0, m)
	for p := 0; p < m; p++ {
		if cnt[p] == 1 {
			queue = append(queue, int32(p))
		}
	}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if assigned[p] || cnt[p] != 1 {
			continue
		}
		col := &e.cols[e.basis[p]]
		pr, pv := int32(-1), 0.0
		for u, r := range col.rows {
			if !covered[r] {
				pr, pv = r, col.vals[u]
			}
		}
		if pr < 0 || pv == 0 {
			return false
		}
		assigned[p] = true
		covered[pr] = true
		e.rowAssigned[pr] = int32(len(e.peelPos))
		e.peelPos = append(e.peelPos, p)
		e.peelRow = append(e.peelRow, pr)
		e.peelDiag = append(e.peelDiag, pv)
		for u := rowStart[pr]; u < rowStart[pr+1]; u++ {
			p2 := rowPosts[u]
			if !assigned[p2] {
				cnt[p2]--
				if cnt[p2] == 1 {
					queue = append(queue, p2)
				}
			}
		}
	}

	for p := 0; p < m; p++ {
		if !assigned[p] {
			e.bumpPos = append(e.bumpPos, int32(p))
		}
	}
	for r := 0; r < m; r++ {
		if !covered[r] {
			e.rowBump[r] = int32(len(e.bumpRow))
			e.bumpRow = append(e.bumpRow, int32(r))
		}
	}
	k := len(e.bumpPos)
	e.k = k
	if k != len(e.bumpRow) {
		return false // cannot happen: peeling assigns rows 1:1
	}
	if k > 0 {
		// Bump block G[a][b] = coefficient of bump column b in bump row a;
		// invert by Gauss–Jordan with partial pivoting.
		g := make([]float64, k*k)
		for bi, p := range e.bumpPos {
			col := &e.cols[e.basis[p]]
			for u, r := range col.rows {
				if a := e.rowBump[r]; a >= 0 {
					g[int(a)*k+bi] = col.vals[u]
				}
			}
		}
		if cap(e.ginv) < k*k {
			e.ginv = make([]float64, k*k)
		}
		inv := e.ginv[:k*k]
		e.ginv = inv
		for i := range inv {
			inv[i] = 0
		}
		for i := 0; i < k; i++ {
			inv[i*k+i] = 1
		}
		for col := 0; col < k; col++ {
			p, best := -1, 1e-10
			for r := col; r < k; r++ {
				if v := math.Abs(g[r*k+col]); v > best {
					p, best = r, v
				}
			}
			if p < 0 {
				return false
			}
			if p != col {
				gr, gc := g[p*k:(p+1)*k], g[col*k:(col+1)*k]
				for t := 0; t < k; t++ {
					gr[t], gc[t] = gc[t], gr[t]
				}
				ir, ic := inv[p*k:(p+1)*k], inv[col*k:(col+1)*k]
				for t := 0; t < k; t++ {
					ir[t], ic[t] = ic[t], ir[t]
				}
			}
			piv := 1 / g[col*k+col]
			gc, ic := g[col*k:(col+1)*k], inv[col*k:(col+1)*k]
			for t := col; t < k; t++ {
				gc[t] *= piv
			}
			for t := 0; t < k; t++ {
				ic[t] *= piv
			}
			for r := 0; r < k; r++ {
				if r == col {
					continue
				}
				f := g[r*k+col]
				if f == 0 {
					continue
				}
				gr, ir := g[r*k:(r+1)*k], inv[r*k:(r+1)*k]
				for t := col; t < k; t++ {
					gr[t] -= f * gc[t]
				}
				for t := 0; t < k; t++ {
					ir[t] -= f * ic[t]
				}
			}
		}
	}
	e.releaseEtas()
	e.sinceRefresh = 0
	return true
}

// ftranB0 solves B0·out = a. a is a row-space vector (len m, destroyed);
// out is position-space.
func (e *fsx) ftranB0(a, out []float64) {
	k := e.k
	// Bump block first: out_bump = G⁻¹ · a_bump.
	for bi := 0; bi < k; bi++ {
		row := e.ginv[bi*k:]
		s := 0.0
		for ai := 0; ai < k; ai++ {
			s += row[ai] * a[e.bumpRow[ai]]
		}
		e.bs[bi] = s
	}
	for bi := 0; bi < k; bi++ {
		p := e.bumpPos[bi]
		v := e.bs[bi]
		out[p] = v
		if v == 0 {
			continue
		}
		// Subtract the bump column's contribution from assigned rows.
		col := &e.cols[e.factCol[p]]
		for u, r := range col.rows {
			if e.rowAssigned[r] >= 0 {
				a[r] -= col.vals[u] * v
			}
		}
	}
	// Back-substitute the triangle in reverse peel order: a peeled
	// column's off-diagonal entries lie only in rows peeled earlier.
	for t := len(e.peelPos) - 1; t >= 0; t-- {
		p, r := e.peelPos[t], e.peelRow[t]
		x := a[r] / e.peelDiag[t]
		out[p] = x
		if x == 0 {
			continue
		}
		col := &e.cols[e.factCol[p]]
		for u, rr := range col.rows {
			if rr != r {
				a[rr] -= col.vals[u] * x
			}
		}
	}
}

// btranB0 solves zᵀ·B0 = rhoᵀ: rho is position-space, z row-space.
func (e *fsx) btranB0(rho, z []float64) {
	// Triangle forward in peel order.
	for t := 0; t < len(e.peelPos); t++ {
		p, r := e.peelPos[t], e.peelRow[t]
		s := rho[p]
		col := &e.cols[e.factCol[p]]
		for u, rr := range col.rows {
			if rr != r {
				s -= col.vals[u] * z[rr]
			}
		}
		z[r] = s / e.peelDiag[t]
	}
	k := e.k
	for bi := 0; bi < k; bi++ {
		p := e.bumpPos[bi]
		s := rho[p]
		col := &e.cols[e.factCol[p]]
		for u, rr := range col.rows {
			if e.rowAssigned[rr] >= 0 {
				s -= col.vals[u] * z[rr]
			}
		}
		e.bs[bi] = s
	}
	for ai := 0; ai < k; ai++ {
		s := 0.0
		for bi := 0; bi < k; bi++ {
			s += e.bs[bi] * e.ginv[bi*k+ai]
		}
		z[e.bumpRow[ai]] = s
	}
}

// applyEtasFwd maps a position-space column vector through the eta file:
// v ← E_t···E_1·v.
func (e *fsx) applyEtasFwd(v []float64) {
	for i := range e.etas {
		et := &e.etas[i]
		vr := v[et.r] / et.piv
		if vr != 0 {
			for u, j := range et.idx {
				v[j] -= et.val[u] * vr
			}
		}
		v[et.r] = vr
	}
}

// applyEtasRev maps a position-space row vector through the eta file in
// reverse: yᵀ ← yᵀ·E_t···E_1 applied as (((yᵀE_t)E_{t-1})···).
func (e *fsx) applyEtasRev(y []float64) {
	for i := len(e.etas) - 1; i >= 0; i-- {
		et := &e.etas[i]
		dot := 0.0
		for u, j := range et.idx {
			dot += y[j] * et.val[u]
		}
		yr := y[et.r]
		y[et.r] = yr - (dot-yr)/et.piv
	}
}

// btranUnit computes row r of B⁻¹ into e.rho (row space).
func (e *fsx) btranUnit(r int) {
	y := e.pv
	for i := range y {
		y[i] = 0
	}
	y[r] = 1
	e.applyEtasRev(y)
	e.btranB0(y, e.rho)
}

// ftranCol computes B⁻¹·A_q into e.w (position space).
func (e *fsx) ftranCol(q int) {
	a := e.rv
	for i := range a {
		a[i] = 0
	}
	col := &e.cols[q]
	for u, r := range col.rows {
		a[r] = col.vals[u]
	}
	e.ftranB0(a, e.w)
	e.applyEtasFwd(e.w)
}

// computeXB recomputes basic values from the current bounds and
// nonbasic placements: xB = B⁻¹(b − N·x_N).
func (e *fsx) computeXB() {
	r := e.rv
	copy(r, e.b)
	for j := 0; j < e.n+e.m; j++ {
		if e.status[j] == inBasis {
			continue
		}
		v := e.nbValue(j)
		if v == 0 {
			continue
		}
		col := &e.cols[j]
		for u, ri := range col.rows {
			r[ri] -= col.vals[u] * v
		}
	}
	e.ftranB0(r, e.xB)
	e.applyEtasFwd(e.xB)
}

// computeDuals recomputes y = c_B·B⁻¹ and all reduced costs from
// scratch (used after refactorization; pivots maintain d incrementally).
func (e *fsx) computeDuals() {
	y := e.pv
	for i := 0; i < e.m; i++ {
		y[i] = e.c[e.basis[i]]
	}
	e.applyEtasRev(y)
	z := e.rv
	e.btranB0(y, z)
	for j := 0; j < e.n+e.m; j++ {
		if e.status[j] == inBasis {
			e.d[j] = 0
			continue
		}
		col := &e.cols[j]
		s := e.c[j]
		for u, ri := range col.rows {
			s -= z[ri] * col.vals[u]
		}
		e.d[j] = s
	}
}

// refresh refactorizes and recomputes duals and basic values; on a
// singular bump it falls back to a full reset (which installs exact
// slack-basis duals itself). Reports false only when even the reset
// fails.
func (e *fsx) refresh() bool {
	if !e.refactor() {
		if !e.reset() {
			return false
		}
	} else {
		e.computeDuals()
	}
	e.computeXB()
	return true
}

// objValue returns cᵀx of the current working point: basic values plus
// costed nonbasics at their bounds.
func (e *fsx) objValue() float64 {
	z := 0.0
	for i := 0; i < e.m; i++ {
		if cb := e.c[e.basis[i]]; cb != 0 {
			z += cb * e.xB[i]
		}
	}
	for _, j := range e.costed {
		if e.status[j] != inBasis {
			z += e.c[j] * e.nbValue(int(j))
		}
	}
	return z
}

// solve re-optimizes after a bound change: restore dual feasibility by
// bound-flipping any nonbasic column whose reduced cost now has the
// wrong sign (possible when a branch fixing is relaxed again on a jump
// to another part of the tree), recompute basic values, then run dual
// simplex until primal feasible or past the objective limit.
func (e *fsx) solve() Status {
	for j := 0; j < e.n; j++ {
		if e.status[j] == inBasis || e.hi[j]-e.lo[j] < 1e-9 {
			continue
		}
		if e.status[j] == nbLower && e.d[j] < -dualTol {
			if math.IsInf(e.hi[j], 1) {
				if !e.reset() {
					return Aborted
				}
				break
			}
			e.status[j] = nbUpper
		} else if e.status[j] == nbUpper && e.d[j] > dualTol {
			if math.IsInf(e.lo[j], -1) {
				if !e.reset() {
					return Aborted
				}
				break
			}
			e.status[j] = nbLower
		}
	}
	e.computeXB()
	return e.reoptimize()
}

// reoptimize runs the dual simplex loop: pick the most-violated basic
// variable, choose the entering column by the bounded dual ratio test,
// pivot. Ties switch to Bland's rule after enough iterations to rule
// out cycling; maxIter aborts to the dense fallback.
func (e *fsx) reoptimize() Status {
	m, tot := e.m, e.n+e.m
	blandAfter := 200 + 2*m
	limited := !math.IsInf(e.objLimit, 1)
	for it := 0; ; it++ {
		if it > e.maxIter {
			return Aborted
		}
		if limited && e.objValue() > e.objLimit {
			// Weak duality: the working point's objective is a lower
			// bound on this relaxation's optimum, which already exceeds
			// the caller's limit — no point finishing the LP.
			return stObjLimit
		}
		bland := it > blandAfter

		// Leaving row: worst primal bound violation (Bland: first).
		r, sgn, worst := -1, 1.0, feasTol
		for i := 0; i < m; i++ {
			bj := e.basis[i]
			if v := e.lo[bj] - e.xB[i]; v > worst {
				worst, r, sgn = v, i, -1
			} else if v := e.xB[i] - e.hi[bj]; v > worst {
				worst, r, sgn = v, i, 1
			}
			if r == i && bland {
				break
			}
		}
		if r < 0 {
			return Optimal
		}

		// Pivot row in all nonbasic columns: alpha_j = (B⁻¹)_r · A_j.
		e.btranUnit(r)
		rho := e.rho
		for j := 0; j < tot; j++ {
			if e.status[j] == inBasis {
				continue
			}
			col := &e.cols[j]
			s := 0.0
			for u, ri := range col.rows {
				s += rho[ri] * col.vals[u]
			}
			e.alpha[j] = s
		}

		// Bounded dual ratio test.
		q, bestRatio, bestAbs := -1, math.Inf(1), 0.0
		for j := 0; j < tot; j++ {
			if e.status[j] == inBasis || e.hi[j]-e.lo[j] < 1e-9 {
				continue
			}
			at := sgn * e.alpha[j]
			if e.status[j] == nbLower {
				if at <= pivTol {
					continue
				}
			} else if at >= -pivTol {
				continue
			}
			ratio := e.d[j] / at
			if ratio < 0 {
				ratio = 0 // reduced-cost drift within tolerance
			}
			if bland {
				if ratio < bestRatio-1e-12 || (ratio <= bestRatio+1e-12 && (q < 0 || j < q)) {
					bestRatio, q = ratio, j
				}
				continue
			}
			if ratio < bestRatio-1e-9 {
				bestRatio, bestAbs, q = ratio, math.Abs(at), j
			} else if ratio <= bestRatio+1e-9 && math.Abs(at) > bestAbs {
				bestRatio, bestAbs, q = math.Min(bestRatio, ratio), math.Abs(at), j
			}
		}
		if q < 0 {
			// No column can repair the violated row: primal infeasible.
			return Infeasible
		}

		// w = B⁻¹·A_q; w[r] equals alpha_q by construction.
		e.ftranCol(q)
		piv := e.w[r]
		if math.Abs(piv) < 1e-10 {
			// Numerically degenerate pivot: refresh and retry.
			if !e.refresh() {
				return Aborted
			}
			continue
		}

		lb := e.basis[r]
		bnd := e.lo[lb]
		if sgn > 0 {
			bnd = e.hi[lb]
		}
		step := (e.xB[r] - bnd) / piv
		for i := 0; i < m; i++ {
			if i != r {
				e.xB[i] -= step * e.w[i]
			}
		}
		e.xB[r] = e.nbValue(q) + step

		// Incremental dual update.
		theta := e.d[q] / (sgn * piv)
		if theta < 0 {
			theta = 0
		}
		if theta != 0 {
			for j := 0; j < tot; j++ {
				if e.status[j] == inBasis || j == q {
					continue
				}
				if a := e.alpha[j]; a != 0 {
					e.d[j] -= theta * sgn * a
				}
			}
		}
		e.d[q] = 0
		e.d[lb] = -theta * sgn

		e.status[q] = inBasis
		if sgn < 0 {
			e.status[lb] = nbLower
		} else {
			e.status[lb] = nbUpper
		}
		e.basis[r] = q

		// Product-form update: append one eta instead of touching a
		// dense inverse.
		e.pushEta(r, piv)

		e.iters++
		e.sinceRefresh++
		if e.sinceRefresh >= fsxRefactorEvery {
			if !e.refresh() {
				return Aborted
			}
		}
	}
}

// values returns the structural solution vector.
func (e *fsx) values() []float64 {
	x := make([]float64, e.n)
	for j := 0; j < e.n; j++ {
		if e.status[j] != inBasis {
			x[j] = e.nbValue(j)
		}
	}
	for i, bj := range e.basis {
		if bj < e.n {
			x[bj] = e.xB[i]
		}
	}
	return x
}
