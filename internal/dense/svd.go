package dense

import (
	"math"
)

// SVDWork holds the scratch buffers of the one-sided Jacobi SVD and of
// the symmetric eigensolver (SymEig) so tight loops (the per-iteration
// Ritz checks inside the Lanczos TRSVD, the per-solve Gram
// eigenproblem) can factor small matrices without allocating. The zero
// value is ready to use; buffers grow on demand and are reused. The
// matrices returned by (*SVDWork).SVD are owned by the workspace and
// are overwritten by the next call — copy what must survive. A
// workspace is not safe for concurrent use.
type SVDWork struct {
	t, w, vcols, u, v *Matrix
	s, nrms, lastRow  []float64
	idx               []int
	// SymEig: the matrix being reduced (then its reflectors) and the
	// eigenvectors' rows; the diagonal (then the eigenvalues) and the
	// subdiagonal; the tridiagonal and the reflector scales; the
	// inverse iteration's LU factors and pivots.
	ev, evk     *Matrix
	ed, ee, tri []float64
	lu          []float64
	piv         []bool
}

// SVD computes a thin singular value decomposition a = U * diag(s) * V^T
// using the one-sided Jacobi method. For a of shape m x n it returns
// U (m x k), s (length k, descending) and V (n x k) with k = min(m, n).
//
// One-sided Jacobi is chosen because it is simple, unconditionally
// stable, and highly accurate for the small-to-medium problems this
// library needs it for: the projected bidiagonal systems inside the
// Lanczos TRSVD (k <= a few dozen) and reference solutions in tests. It
// stands in for the LAPACK xGESVD the paper links against. The returned
// matrices are freshly allocated; use an SVDWork to amortize the
// scratch across many small factorizations.
func SVD(a *Matrix) (u *Matrix, s []float64, v *Matrix) {
	var wk SVDWork
	return wk.SVD(a)
}

// SVD is the workspace-backed variant of the package-level SVD: same
// results, but all scratch and the returned factors live in the
// workspace and are reused by the next call.
func (wk *SVDWork) SVD(a *Matrix) (u *Matrix, s []float64, v *Matrix) {
	if a.Rows < a.Cols {
		// Work on the transpose and swap the factors.
		wk.t = transposeInto(wk.t, a)
		vt, st, ut := wk.svdTall(wk.t)
		return ut, st, vt
	}
	return wk.svdTall(a)
}

// svdTall runs one-sided Jacobi on a with a.Rows >= a.Cols.
func (wk *SVDWork) svdTall(a *Matrix) (*Matrix, []float64, *Matrix) {
	m, n := a.Rows, a.Cols
	// Column-major working copy: w.Row(j) is column j of a. V is
	// accumulated column-major too: vcols.Row(j) is column j of V.
	wk.w = transposeInto(wk.w, a)
	w := wk.w
	vcols := ReuseMatrix(wk.vcols, n, n)
	for i := range n {
		vcols.Set(i, i, 1)
	}
	wk.vcols = vcols
	jacobiSweeps(w, vcols)

	// Singular values are the column norms, sorted descending (stable).
	wk.nrms = ReuseVec(wk.nrms, n)
	idx := wk.sortIdx(n)
	for j := 0; j < n; j++ {
		wk.nrms[j] = Nrm2(w.Row(j))
	}
	sortByNormDesc(idx, wk.nrms)

	wk.u = ReuseMatrix(wk.u, m, n)
	wk.v = ReuseMatrix(wk.v, n, n)
	wk.s = ReuseVec(wk.s, n)
	u, v, s := wk.u, wk.v, wk.s
	for out, j := range idx {
		nrm := wk.nrms[j]
		s[out] = nrm
		src := w.Row(j)
		if nrm > 0 {
			for i := 0; i < m; i++ {
				u.Set(i, out, src[i]/nrm)
			}
		}
		// Null directions keep a zero column; callers that need an
		// orthonormal basis complete it themselves.
		vsrc := vcols.Row(j)
		for i := 0; i < n; i++ {
			v.Set(i, out, vsrc[i])
		}
	}
	return u, s, v
}

// SingularValuesLastRow computes only the singular values of a (m >= n,
// descending) and the last row of U — exactly what the Lanczos Ritz
// residual test consumes every iteration. It runs the same one-sided
// Jacobi sweeps as SVD but skips forming U and V (an O(n*(m+n)) saving
// per call on the hot per-iteration path). Both returned slices are
// workspace-owned.
func (wk *SVDWork) SingularValuesLastRow(a *Matrix) (s, last []float64) {
	if a.Rows < a.Cols {
		panic("dense: SingularValuesLastRow requires rows >= cols")
	}
	m, n := a.Rows, a.Cols
	wk.w = transposeInto(wk.w, a)
	w := wk.w
	jacobiSweeps(w, nil)

	wk.nrms = ReuseVec(wk.nrms, n)
	idx := wk.sortIdx(n)
	for j := 0; j < n; j++ {
		wk.nrms[j] = Nrm2(w.Row(j))
	}
	sortByNormDesc(idx, wk.nrms)

	wk.s = ReuseVec(wk.s, n)
	wk.lastRow = ReuseVec(wk.lastRow, n)
	for out, j := range idx {
		nrm := wk.nrms[j]
		wk.s[out] = nrm
		if nrm > 0 {
			wk.lastRow[out] = w.Row(j)[m-1] / nrm
		}
	}
	return wk.s, wk.lastRow
}

// jacobiSweeps runs one-sided Jacobi rotations on the column-major
// working copy w until the off-diagonal Gram mass vanishes, co-rotating
// vcols (the V accumulator) when non-nil.
func jacobiSweeps(w, vcols *Matrix) {
	n := w.Rows
	const maxSweeps = 60
	eps := 1e-15
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				cp, cq := w.Row(p), w.Row(q)
				alpha := Dot(cp, cp)
				beta := Dot(cq, cq)
				gamma := Dot(cp, cq)
				if gamma == 0 {
					continue
				}
				denom := math.Sqrt(alpha * beta)
				if denom == 0 || math.Abs(gamma) <= eps*denom {
					continue
				}
				off += math.Abs(gamma) / denom
				// Jacobi rotation zeroing the (p,q) Gram entry.
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				rotate(cp, cq, c, sn)
				if vcols != nil {
					rotate(vcols.Row(p), vcols.Row(q), c, sn)
				}
			}
		}
		if off == 0 {
			break
		}
	}
}

// sortIdx returns the workspace index buffer [0, n) ready for sorting.
func (wk *SVDWork) sortIdx(n int) []int {
	if cap(wk.idx) < n {
		wk.idx = make([]int, n)
	}
	idx := wk.idx[:n]
	for j := range idx {
		idx[j] = j
	}
	return idx
}

// sortByNormDesc stably insertion-sorts idx by descending nrms (n is at
// most a few hundred here, and the reflection-based sort.SliceStable
// would allocate on every call).
func sortByNormDesc(idx []int, nrms []float64) {
	for i := 1; i < len(idx); i++ {
		id := idx[i]
		nr := nrms[id]
		j := i - 1
		for ; j >= 0 && nrms[idx[j]] < nr; j-- {
			idx[j+1] = idx[j]
		}
		idx[j+1] = id
	}
}

// GramWhitenInto computes a whitening combination for a symmetric
// positive semi-definite Gram matrix g = YᵀY: columns of c satisfy
// (Y·C)ᵀ(Y·C) = I on the numerically significant subspace, via the
// eigendecomposition g = V·Λ·Vᵀ and C = V·Λ^{-1/2}. Directions whose
// eigenvalue falls below a relative cutoff are dropped (their column of
// c is zeroed), so a rank-deficient panel yields an orthonormal basis
// of its actual range plus explicit zero columns. c must be g.Rows x
// g.Rows and is fully overwritten.
//
// Returns the retained rank and the condition number λmax/λmin of the
// retained spectrum (+Inf when everything was cut). One whitening pass
// leaves O(cond·eps) orthogonality error, so callers gate a second pass
// on the returned condition: re-whitening when it is large (recompute
// the Gram of Y·C, whiten again) is the CholeskyQR2 discipline, giving
// orthonormality to machine precision without any distributed QR —
// only Gram reductions.
func (wk *SVDWork) GramWhitenInto(c, g *Matrix) (int, float64) {
	n := g.Rows
	if g.Cols != n || c.Rows != n || c.Cols != n {
		panic("dense: GramWhitenInto requires square g and matching c")
	}
	v, lam, _ := wk.SVD(g) // symmetric PSD: SVD == eigendecomposition
	cut := 0.0
	if n > 0 {
		cut = 1e-14 * lam[0]
	}
	rank := 0
	for j := 0; j < n; j++ {
		if lam[j] > cut && lam[j] > 1e-300 {
			rank++
		}
	}
	for i := 0; i < n; i++ {
		dst := c.Row(i)
		src := v.Row(i)
		for j := 0; j < rank; j++ {
			dst[j] = src[j] / math.Sqrt(lam[j])
		}
		for j := rank; j < n; j++ {
			dst[j] = 0
		}
	}
	cond := math.Inf(1)
	if rank > 0 {
		cond = lam[0] / lam[rank-1]
	}
	return rank, cond
}

// TransposeInto writes aᵀ into dst, reusing dst's storage when large
// enough, and returns the (possibly reallocated) destination.
func TransposeInto(dst, a *Matrix) *Matrix { return transposeInto(dst, a) }

// transposeInto writes a^T into dst, reusing its storage when large
// enough. Uninitialized reuse is safe: the loop writes every element.
func transposeInto(dst, a *Matrix) *Matrix {
	dst = ReuseMatrixUninit(dst, a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = v
		}
	}
	return dst
}

// rotate applies the Givens rotation [c s; -s c] to the column pair
// (x, y): x' = c*x - s*y, y' = s*x + c*y.
func rotate(x, y []float64, c, s float64) {
	for i := range x {
		xi, yi := x[i], y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// LeadingLeftSingularVectors returns the first k left singular vectors of
// a as an a.Rows x k matrix, plus the corresponding singular values.
func LeadingLeftSingularVectors(a *Matrix, k int) (*Matrix, []float64) {
	u, s, _ := SVD(a)
	if k > u.Cols {
		k = u.Cols
	}
	out := NewMatrix(u.Rows, k)
	for i := 0; i < u.Rows; i++ {
		copy(out.Row(i), u.Row(i)[:k])
	}
	return out, s[:k]
}
