package dense

import (
	"sync"

	"hypertensor/internal/par"
)

// KronRows stores compactly the rows of a matrix B that follow its dense
// prefix A and are each one scaled Kronecker product with a factor row
// they share in groups. Group j is rows Ptr[j] up to Ptr[j+1] of T, u_j
// is row Idx[j] of U, and row i of T holds the c = T.Cols entries t_i of
// B's row u_j ⊗ t_i when Slow holds and t_i ⊗ u_j otherwise, a row of
// A.Cols = U.Cols·c. These are the rows of a mode-n TTMc that one
// nonzero builds (ttm.Flat.SplitSingletons): t_i is the nonzero's value
// times the row of the factor that is not U's, so T holds c entries of a
// row where B holds A.Cols. B is A's rows, then T's in T's order, each
// expanded (Materialize); the Kron kernels compute with B without forming
// it: SyrkKronInto its Gram matrix, KronMatMulInto B·W and
// KronMatMulTAInto Bᵀ·Y.
type KronRows struct {
	Ptr  []int32
	Idx  []int32
	U    *Matrix
	T    Matrix
	Slow bool
}

// Rows is the number of grouped rows, Ptr's last entry: T.Rows once T is
// bound.
func (k *KronRows) Rows() int { return int(k.Ptr[len(k.Idx)]) }

// strides returns the distance in a row of B between consecutive
// entries of u_j and of t_i: u slow, t fast when Slow holds.
func (k *KronRows) strides() (us, ts int) {
	if k.Slow {
		return k.T.Cols, 1
	}
	return 1, k.U.Cols
}

// check panics unless a and k describe one matrix.
func (k *KronRows) check(a *Matrix) {
	if k.T.Cols*k.U.Cols != a.Cols || k.T.Rows != k.Rows() || len(k.T.Data) < k.T.Rows*k.T.Cols {
		panic("dense: KronRows shape mismatch")
	}
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

// SyrkKronInto computes G = BᵀB for the matrix B that a and k describe:
// SyrkInto over a, plus K = Σ_j (u_j u_jᵀ) ⊗ S_j with S_j = T_jᵀT_j the
// SYRK of the group's rows of T, c x c. Each group's S_j is summed
// serially, in row order, and its row of P is vec(u_j u_jᵀ); the groups
// run on the dynamic schedule and K's entries are the one product Pᵀ·S
// (MatMulTAInto), so G is bitwise identical for every thread count. It
// is BᵀB summed in another order, and exactly symmetric. P, S and their
// product live in work once the SYRK's partials are spent; work is
// grown as needed and returned, as SyrkInto's is.
func SyrkKronInto(g, a *Matrix, k *KronRows, work []float64, threads int) []float64 {
	k.check(a)
	n, rg, c := a.Cols, k.U.Cols, k.T.Cols
	work = SyrkInto(g, a, work, threads)
	groups := len(k.Idx)
	if groups == 0 {
		return work
	}
	np, ns, nm := groups*rg*rg, groups*c*c, rg*rg*c*c
	if cap(work) < np+ns+nm {
		work = make([]float64, np+ns+nm)
	}
	r := kronRuns.Get().(*kronRun)
	r.k = k
	r.p = Matrix{Rows: groups, Cols: rg * rg, Data: work[:np]}
	r.s = Matrix{Rows: groups, Cols: c * c, Data: work[np : np+ns]}
	r.m = Matrix{Rows: rg * rg, Cols: c * c, Data: work[np+ns : np+ns+nm]}
	par.Dynamic(groups, threads, 1, (*kronGram)(r))
	MatMulTAInto(&r.m, &r.p, &r.s, threads)

	// K[(u, v), (u', v')] = M[(u, u'), (v, v')], in B's column layout.
	us, vs := k.strides()
	for u := 0; u < rg; u++ {
		for u2 := 0; u2 < rg; u2++ {
			mrow := r.m.Row(u*rg + u2)
			for v := 0; v < c; v++ {
				grow := g.Data[(u*us+v*vs)*n:]
				for v2, val := range mrow[v*c : v*c+c] {
					grow[u2*us+v2*vs] += val
				}
			}
		}
	}
	r.release()
	return work
}

// KronMatMulInto computes Y = B·W for the matrix B that a and k describe:
// Y's first a.Rows rows are MatMulInto's a·W, and group j's rows are
// T_j·W_j, where W_j = Σ_p u_j[p]·W[(p, ·), :] is the c x W.Cols block
// of W that u_j contracts — c·W.Cols madds a grouped row where B·W
// spends A.Cols·W.Cols. The groups run on the dynamic schedule, each W_j
// in its worker's slot of a pooled scratch, and every row of Y is
// matMulRows' whatever range it is computed in, so Y is bitwise
// identical for every thread count.
func KronMatMulInto(y, a *Matrix, k *KronRows, w *Matrix, threads int) {
	k.check(a)
	if w.Rows != a.Cols || y.Rows != a.Rows+k.T.Rows || y.Cols != w.Cols {
		panic("dense: KronMatMulInto shape mismatch")
	}
	r := kronRuns.Get().(*kronRun)
	r.k, r.w = k, w
	r.head = Matrix{Rows: a.Rows, Cols: w.Cols, Data: y.Data[:a.Rows*w.Cols]}
	r.tail = Matrix{Rows: k.T.Rows, Cols: w.Cols, Data: y.Data[a.Rows*w.Cols : y.Rows*w.Cols]}
	MatMulInto(&r.head, a, w, threads)
	if groups := len(k.Idx); groups > 0 {
		threads = min(par.DefaultThreads(threads), groups)
		r.slot = k.T.Cols * w.Cols
		if n := threads * r.slot; cap(r.buf) < n {
			r.buf = make([]float64, n)
		}
		if len(r.views) < threads {
			r.views = make([]Matrix, threads)
		}
		par.Dynamic(groups, threads, 1, (*kronMul)(r))
	}
	r.release()
}

// KronMatMulTAInto computes Z = Bᵀ·Y for the matrix B that a and k
// describe: MatMulTAInto's aᵀ·Y over Y's first a.Rows rows, plus
// Σ_j u_j ⊗ (T_jᵀ·Y_j) over each group's rows Y_j of Y. The groups' sum
// runs on par.ReduceRows' fixed grid, each group's T_jᵀ·Y_j serially in
// row order, so Z is bitwise identical for every thread count.
func KronMatMulTAInto(z, a *Matrix, k *KronRows, y *Matrix, threads int) {
	k.check(a)
	if y.Rows != a.Rows+k.T.Rows || z.Rows != a.Cols || z.Cols != y.Cols {
		panic("dense: KronMatMulTAInto shape mismatch")
	}
	r := kronRuns.Get().(*kronRun)
	r.k = k
	r.head = Matrix{Rows: a.Rows, Cols: y.Cols, Data: y.Data[:a.Rows*y.Cols]}
	r.tail = Matrix{Rows: k.T.Rows, Cols: y.Cols, Data: y.Data[a.Rows*y.Cols : y.Rows*y.Cols]}
	MatMulTAInto(z, a, &r.head, threads)
	if len(k.Idx) > 0 {
		rg, c, bc := k.U.Cols, k.T.Cols, y.Cols
		// M (rg x c·bc) = Σ_j u_j ⊗ vec(T_jᵀ·Y_j); row p of M is the
		// block of Z's rows that u_j[p] scales.
		if n := rg * c * bc; cap(r.buf) < n {
			r.buf = make([]float64, n)
		}
		m := r.buf[:rg*c*bc]
		r.work = par.ReduceRows(m, len(k.Idx), threads, r.work, (*kronSum)(r))
		us, ts := k.strides()
		for p := 0; p < rg; p++ {
			for q := 0; q < c; q++ {
				AxpyUnrolled(1, m[(p*c+q)*bc:(p*c+q+1)*bc], z.Row(p*us+q*ts))
			}
		}
	}
	r.release()
}

// kronRun is the Kron kernels' pooled state: the matrix headers they
// hand the block kernels and the group loops' operands, so that a call
// allocates nothing once its scratch has grown.
type kronRun struct {
	k          *KronRows
	w          *Matrix
	p, s, m    Matrix
	head, tail Matrix
	slot       int
	buf, work  []float64
	views      []Matrix // a W_j header per worker
}

var kronRuns = sync.Pool{New: func() any { return new(kronRun) }}

// release drops r's references to the call's matrices, keeping its
// scratch, and returns r to the pool.
func (r *kronRun) release() {
	clear(r.views)
	*r = kronRun{buf: r.buf, work: r.work, views: r.views}
	kronRuns.Put(r)
}

// kronGram sets the rows of P and S of groups [lo, hi) (SyrkKronInto).
type kronGram kronRun

func (r *kronGram) Run(_, lo, hi int) {
	k, c := r.k, r.k.T.Cols
	for j := lo; j < hi; j++ {
		u := k.U.Row(int(k.Idx[j]))
		p, s := r.p.Row(j), r.s.Row(j)
		for i, ui := range u {
			for i2, ui2 := range u {
				p[i*len(u)+i2] = ui * ui2
			}
		}
		clear(s)
		syrkBlock(s, &k.T, int(k.Ptr[j]), int(k.Ptr[j+1]))
		for v := 1; v < c; v++ {
			for v2 := 0; v2 < v; v2++ {
				s[v*c+v2] = s[v2*c+v]
			}
		}
	}
}

// kronMul computes the rows of groups [lo, hi) of KronMatMulInto's Y on
// worker w: W_j in the worker's slot, then T_j·W_j.
type kronMul kronRun

func (r *kronMul) Run(w, lo, hi int) {
	k, c, bc := r.k, r.k.T.Cols, r.w.Cols
	wj := &r.views[w]
	*wj = Matrix{Rows: c, Cols: bc, Data: r.buf[w*r.slot : (w+1)*r.slot]}
	us, ts := k.strides()
	for j := lo; j < hi; j++ {
		clear(wj.Data)
		for p, up := range k.U.Row(int(k.Idx[j])) {
			if k.Slow {
				AxpyUnrolled(up, r.w.Data[p*us*bc:(p*us+c)*bc], wj.Data)
				continue
			}
			for q := 0; q < c; q++ {
				Axpy(up, r.w.Row(p*us+q*ts), wj.Row(q))
			}
		}
		matMulRows(&r.tail, &k.T, wj, int(k.Ptr[j]), int(k.Ptr[j+1]))
	}
}

// kronSum is KronMatMulTAInto's group sum: Sum adds u_j ⊗ vec(T_jᵀ·Y_j)
// of groups [lo, hi) to a partial, each T_jᵀ·Y_j formed in a pooled
// scratch.
type kronSum kronRun

func (r *kronSum) Sum(m []float64, lo, hi int) {
	k, bc := r.k, r.tail.Cols
	n := k.T.Cols * bc
	sc := getScratch(n)
	for j := lo; j < hi; j++ {
		clear(sc.data)
		matMulTABlock(sc.data, &k.T, &r.tail, int(k.Ptr[j]), int(k.Ptr[j+1]))
		for p, up := range k.U.Row(int(k.Idx[j])) {
			AxpyUnrolled(up, sc.data, m[p*n:(p+1)*n])
		}
	}
	sc.release()
}

func (*kronSum) Add(dst, p []float64) { AxpyUnrolled(1, p, dst) }
