package dense

import "hypertensor/internal/par"

// KronRows stores compactly the rows of a matrix B that follow its dense
// prefix A and are each one scaled Kronecker product with a factor row
// they share in groups. Group j is rows Ptr[j] up to Ptr[j+1] of T, u_j
// is row Idx[j] of U, and row i of T holds the c = T.Cols entries t_i of
// B's row u_j ⊗ t_i when Slow holds and t_i ⊗ u_j otherwise, a row of
// A.Cols = U.Cols·c. These are the rows of a mode-n TTMc that one
// nonzero builds (ttm.DTree.SplitSingletons): t_i is the nonzero's value
// times the row of the factor that is not U's, so T holds c entries of a
// row where B holds A.Cols. B is A's rows, then T's in T's order, each
// expanded (Materialize); the Kron kernels compute with B without forming
// it: SyrkKronInto its Gram matrix, KronMatMulInto B·W and
// KronMatMulTAInto Bᵀ·Y. Nil rows are none: B is A, and the kernels make
// exactly SyrkInto's, MatMulInto's and MatMulTAInto's calls.
//
// The rows also keep the kernels' state (headers, per-worker slots, M
// and its partials), so that no call allocates once it has grown, and
// serve one call at a time.
type KronRows struct {
	Ptr  []int32
	Idx  []int32
	U    *Matrix
	T    Matrix
	Slow bool

	m, head, tail         Matrix
	w                     *Matrix
	buf, slots, sum, work []float64
	stride                int
}

// Rows is the number of grouped rows, Ptr's last entry: T.Rows once T is
// bound, and 0 for nil rows.
func (k *KronRows) Rows() int {
	if k == nil {
		return 0
	}
	return int(k.Ptr[len(k.Idx)])
}

// strides returns the distance in a row of B between consecutive
// entries of u_j and of t_i: u slow, t fast when Slow holds.
func (k *KronRows) strides() (us, ts int) {
	if k.Slow {
		return k.T.Cols, 1
	}
	return 1, k.U.Cols
}

// check panics unless a and k describe one matrix (nil rows and any a do).
func (k *KronRows) check(a *Matrix) {
	if k != nil && (k.T.Cols*k.U.Cols != a.Cols || k.T.Rows != k.Rows() || len(k.T.Data) < k.T.Rows*k.T.Cols) {
		panic("dense: KronRows shape mismatch")
	}
}

// split returns y's first rows rows, the ones A gives: y itself for nil
// rows, otherwise k.head, with k.tail the rest.
func (k *KronRows) split(y *Matrix, rows int) *Matrix {
	if k == nil {
		return y
	}
	k.head = Matrix{Rows: rows, Cols: y.Cols, Data: y.Data[:rows*y.Cols]}
	k.tail = Matrix{Rows: y.Rows - rows, Cols: y.Cols, Data: y.Data[rows*y.Cols : y.Rows*y.Cols]}
	return &k.head
}

// Materialize returns B, the matrix a and k describe, every grouped row
// written out at full width: the definition the Kron kernels are held to.
func (k *KronRows) Materialize(a *Matrix) *Matrix {
	k.check(a)
	b := NewMatrix(a.Rows+k.T.Rows, a.Cols)
	copy(b.Data, a.Data[:a.Rows*a.Cols])
	us, ts := k.strides()
	for j, i := range k.Idx {
		u := k.U.Row(int(i))
		for r := int(k.Ptr[j]); r < int(k.Ptr[j+1]); r++ {
			row := b.Row(a.Rows + r)
			for p, up := range u {
				for q, tq := range k.T.Row(r) {
					row[p*us+q*ts] = up * tq
				}
			}
		}
	}
	return b
}

// SyrkMadds is the multiply-adds SyrkInto runs on a rows x cols matrix:
// the upper triangle, cols(cols+1)/2 a row.
func SyrkMadds(rows, cols int) int64 {
	return int64(rows) * int64(cols) * int64(cols+1) / 2
}

// SyrkKronMadds is the multiply-adds SyrkKronInto runs on a matrix of
// cols columns whose KronRows hold multi leading rows and singles rows in
// groups groups on a factor of rg columns: the SYRK of the multi rows,
// the upper triangle of each grouped row's c x c term (c = cols/rg), and
// the groups x rg² by groups x c² product Pᵀ·S.
func SyrkKronMadds(multi, singles, groups, cols, rg int) int64 {
	c := cols / rg
	return SyrkMadds(multi, cols) + SyrkMadds(singles, c) + int64(groups)*int64(cols)*int64(cols)
}

// KronMatMulMadds is the multiply-adds KronMatMulInto runs for a panel
// of k columns, and KronMatMulTAInto for one of k rows, on the same
// matrix: the multi rows at full width, each grouped row at c =
// cols/rg, and each group's contraction of the panel with u_j.
func KronMatMulMadds(multi, singles, groups, cols, rg, k int) int64 {
	return (int64(multi)*int64(cols) + int64(singles)*int64(cols/rg) + int64(groups)*int64(cols)) * int64(k)
}

// SyrkMadds is SyrkKronMadds of a rows x cols B with these grouped rows,
// and SyrkMadds for nil rows.
func (k *KronRows) SyrkMadds(rows, cols int) int64 {
	if k == nil {
		return SyrkMadds(rows, cols)
	}
	return SyrkKronMadds(rows-k.Rows(), k.Rows(), len(k.Idx), cols, k.U.Cols)
}

// MatMulMadds is KronMatMulMadds of the same B and a panel of panel
// columns, and every row at full width for nil rows.
func (k *KronRows) MatMulMadds(rows, cols, panel int) int64 {
	if k == nil {
		return int64(rows) * int64(cols) * int64(panel)
	}
	singles := k.Rows()
	return KronMatMulMadds(rows-singles, singles, len(k.Idx), cols, k.U.Cols, panel)
}

// SyrkKronInto computes G = BᵀB for the matrix B that a and k describe:
// SyrkInto over a, plus K = Σ_j (u_j u_jᵀ) ⊗ S_j with S_j = T_jᵀT_j the
// SYRK of the group's rows of T, c x c. Each group's S_j is summed
// serially, in row order, and its row of P is vec(u_j u_jᵀ); K's entries
// are the one product Pᵀ·S (MatMulTAInto's sum) on par.ReduceRows' grid
// over the groups, each block's rows of P and S set first in its
// worker's slot (par.Slots), so G is bitwise identical for every thread
// count. It is BᵀB summed in another order, and exactly symmetric.
// M = Pᵀ·S, the slots and M's partials live in work once the SYRK's
// partials are spent, so the rows of every mode share the caller's one
// buffer; work is grown as needed and returned, as SyrkInto's is. It
// holds at least the partials of SyrkInto over all of B's rows, the
// plain product's, so that a singleton row turning into a multi row (a
// tensor update) grows no buffer.
func SyrkKronInto(g, a *Matrix, k *KronRows, work []float64, threads int) []float64 {
	k.check(a)
	if k.Rows() == 0 {
		return SyrkInto(g, a, work, threads)
	}
	rows := a.Rows + k.Rows()
	work = par.ReduceWork(work, rows, a.Cols*a.Cols, syrkThreads(rows, a.Cols, threads))
	work = SyrkInto(g, a, work, threads)
	n, rg, c, groups := a.Cols, k.U.Cols, k.T.Cols, len(k.Idx)
	nm := rg * rg * c * c
	if cap(work) < nm {
		work = make([]float64, nm)
	}
	k.m = Matrix{Rows: rg * rg, Cols: c * c, Data: work[:nm]}
	// The workers' slots follow M, and the partials follow the slots.
	nb := par.NumReduceBlocks(groups)
	grown, slots, stride := par.Slots(work[nm:cap(work)], min(par.DefaultThreads(threads), nb), (groups+nb-1)/nb*(rg*rg+c*c))
	k.slots, k.stride = slots, stride
	parts := par.ReduceRows(k.m.Data, groups, threads, slots[len(slots):cap(slots)], (*kronPS)(k))

	// K[(u, v), (u', v')] = M[(u, u'), (v, v')], in B's column layout.
	us, vs := k.strides()
	for u := 0; u < rg; u++ {
		for u2 := 0; u2 < rg; u2++ {
			mrow := k.m.Row(u*rg + u2)
			for v := 0; v < c; v++ {
				grow := g.Data[(u*us+v*vs)*n:]
				for v2, val := range mrow[v*c : v*c+c] {
					grow[u2*us+v2*vs] += val
				}
			}
		}
	}
	k.m, k.slots = Matrix{}, nil
	if cap(grown) > cap(work)-nm || cap(parts) > cap(slots)-len(slots) {
		// The slots or the partials did not fit behind M and took a
		// buffer of their own; the next call's fit in the one returned.
		work = make([]float64, nm+cap(grown)+cap(parts))
	}
	return work
}

// KronMatMulInto computes Y = B·W for the matrix B that a and k describe:
// Y's first a.Rows rows are MatMulInto's a·W, on s, and group j's rows
// are T_j·W_j, where W_j = Σ_p u_j[p]·W[(p, ·), :] is the c x W.Cols
// block of W that u_j contracts — c·W.Cols madds a grouped row where B·W
// spends A.Cols·W.Cols. The groups run on the dynamic schedule, each W_j
// and its narrow-tile panel in its worker's slot (par.Slots) of the rows'
// scratch, and every row of Y is matMulRows' whatever range it is
// computed in, so Y is bitwise identical for every thread count.
func (s *Scratch) KronMatMulInto(y, a *Matrix, k *KronRows, w *Matrix, threads int) {
	k.check(a)
	if w.Rows != a.Cols || y.Rows != a.Rows+k.Rows() || y.Cols != w.Cols {
		panic("dense: KronMatMulInto shape mismatch")
	}
	s.MatMulInto(k.split(y, a.Rows), a, w, threads)
	if k.Rows() == 0 {
		return
	}
	c := k.T.Cols
	threads = min(par.DefaultThreads(threads), len(k.Idx))
	k.buf, k.slots, k.stride = par.Slots(k.buf, threads, c*w.Cols+narrowLen(c, w.Cols))
	k.w = w
	par.Dynamic(len(k.Idx), threads, 1, (*kronMul)(k))
	k.w, k.head, k.tail = nil, Matrix{}, Matrix{}
}

// KronMatMulTAInto computes Z = Bᵀ·Y for the matrix B that a and k
// describe: MatMulTAInto's aᵀ·Y over Y's first a.Rows rows, on s, plus
// Σ_j u_j ⊗ (T_jᵀ·Y_j) over each group's rows Y_j of Y. The groups' sum
// runs on par.ReduceRows' fixed grid, each group's T_jᵀ·Y_j serially in
// row order in its worker's slot, so Z is bitwise identical for every
// thread count.
func (s *Scratch) KronMatMulTAInto(z, a *Matrix, k *KronRows, y *Matrix, threads int) {
	k.check(a)
	if y.Rows != a.Rows+k.Rows() || z.Rows != a.Cols || z.Cols != y.Cols {
		panic("dense: KronMatMulTAInto shape mismatch")
	}
	s.MatMulTAInto(z, a, k.split(y, a.Rows), threads)
	if k.Rows() == 0 {
		return
	}
	rg, c, bc := k.U.Cols, k.T.Cols, y.Cols
	// M (rg x c·bc) = Σ_j u_j ⊗ vec(T_jᵀ·Y_j); row p of M is the block of
	// Z's rows that u_j[p] scales.
	m := ReuseVec(k.sum, rg*c*bc)
	k.sum = m
	k.buf, k.slots, k.stride = par.Slots(k.buf, par.DefaultThreads(threads), c*bc)
	k.work = par.ReduceRows(m, len(k.Idx), threads, k.work, (*kronSum)(k))
	us, ts := k.strides()
	for p := 0; p < rg; p++ {
		for q := 0; q < c; q++ {
			AxpyUnrolled(1, m[(p*c+q)*bc:(p*c+q+1)*bc], z.Row(p*us+q*ts))
		}
	}
	k.head, k.tail = Matrix{}, Matrix{}
}

// kronPS is SyrkKronInto's Pᵀ·S: MatMulTAInto's sum over the groups,
// whose rows of P and S a block sets first in its worker's slot.
type kronPS KronRows

func (k *kronPS) Sum(w int, part []float64, lo, hi int) {
	rg, c, rows := k.U.Cols, k.T.Cols, hi-lo
	slot := k.slots[w*k.stride:]
	p := Matrix{Rows: rows, Cols: rg * rg, Data: slot[:rows*rg*rg]}
	s := Matrix{Rows: rows, Cols: c * c, Data: slot[rows*rg*rg : rows*(rg*rg+c*c)]}
	for j := lo; j < hi; j++ {
		u := k.U.Row(int(k.Idx[j]))
		pj, sj := p.Row(j-lo), s.Row(j-lo)
		for i, ui := range u {
			for i2, ui2 := range u {
				pj[i*len(u)+i2] = ui * ui2
			}
		}
		clear(sj)
		syrkBlock(sj, &k.T, int(k.Ptr[j]), int(k.Ptr[j+1]))
		for v := 1; v < c; v++ {
			for v2 := 0; v2 < v; v2++ {
				sj[v*c+v2] = sj[v2*c+v]
			}
		}
	}
	matMulTABlock(part, &p, &s, 0, rows)
}

func (*kronPS) Add(dst, p []float64) { AxpyUnrolled(1, p, dst) }

// kronMul computes the rows of groups [lo, hi) of KronMatMulInto's Y on
// worker w: W_j in the worker's slot, packed there for the narrow tile,
// then T_j·W_j.
type kronMul KronRows

func (k *kronMul) Run(w, lo, hi int) {
	c, bc, wm := k.T.Cols, k.w.Cols, k.w
	slot := k.slots[w*k.stride:]
	wj := Matrix{Rows: c, Cols: bc, Data: slot[:c*bc]}
	pack := slot[c*bc : c*bc+narrowLen(c, bc)]
	us, ts := (*KronRows)(k).strides()
	for j := lo; j < hi; j++ {
		clear(wj.Data)
		for p, up := range k.U.Row(int(k.Idx[j])) {
			if k.Slow {
				AxpyUnrolled(up, wm.Data[p*us*bc:(p*us+c)*bc], wj.Data)
				continue
			}
			for q := 0; q < c; q++ {
				Axpy(up, wm.Row(p*us+q*ts), wj.Row(q))
			}
		}
		_, panel := packNarrow(pack, c, &wj)
		matMulRows(&k.tail, &k.T, &wj, panel, int(k.Ptr[j]), int(k.Ptr[j+1]))
	}
}

// kronSum is KronMatMulTAInto's group sum: Sum adds u_j ⊗ vec(T_jᵀ·Y_j)
// of groups [lo, hi) to a partial, each T_jᵀ·Y_j formed in worker w's
// slot.
type kronSum KronRows

func (k *kronSum) Sum(w int, m []float64, lo, hi int) {
	n := k.T.Cols * k.tail.Cols
	t := k.slots[w*k.stride:][:n]
	for j := lo; j < hi; j++ {
		clear(t)
		matMulTABlock(t, &k.T, &k.tail, int(k.Ptr[j]), int(k.Ptr[j+1]))
		for p, up := range k.U.Row(int(k.Idx[j])) {
			AxpyUnrolled(up, t, m[p*n:(p+1)*n])
		}
	}
}

func (*kronSum) Add(dst, p []float64) { AxpyUnrolled(1, p, dst) }
