package dense

import "math"

// SymEig computes the k leading eigenpairs of a symmetric matrix g, of
// which only the upper triangle is read, by the route of LAPACK's xSYEVX
// (sytrd, sterf, stein, ormtr): Householder reduction to tridiagonal
// form, keeping the reflectors but never forming their product; every
// eigenvalue by implicit-shift QL iterations that rotate no vectors (the
// EISPACK tql2 sweeps); the tridiagonal eigenvectors of the k largest by
// inverse iteration; and those k alone back through the reflectors. It
// returns all n eigenvalues, descending, and a k x n matrix whose ROW j
// is the unit eigenvector of lam[j]. Both are workspace-owned and
// overwritten by the next call.
//
// The reduction's ~(4/3)n³ flops are nearly the whole cost: the QL
// sweeps and each eigenvector are O(n²). The computation is serial, so
// the result is the same bits on every thread count and rank, and row j
// does not depend on k. Eigenvalues are accurate to a few ulps of the
// largest one in magnitude; those of a positive semi-definite g may come
// back as small negative numbers. Eigenvectors leave a residual of a few
// ulps of ‖g‖; where eigenvalues crowd, each vector is made orthogonal to
// its neighbours', so the k rows are orthonormal to rounding.
func (wk *SVDWork) SymEig(g *Matrix, k int) (lam []float64, vt *Matrix) {
	n := g.Rows
	if g.Cols != n {
		panic("dense: SymEig requires a square matrix")
	}
	if k < 0 || k > n {
		panic("dense: SymEig asks for more eigenvectors than the matrix has")
	}
	wk.ev = ReuseMatrixUninit(wk.ev, n, n)
	copy(wk.ev.Data, g.Data)
	wk.ed = ReuseVec(wk.ed, n)
	wk.ee = ReuseVec(wk.ee, n)
	wk.evk = ReuseMatrixUninit(wk.evk, k, n)
	if n == 0 {
		return wk.ed, wk.evk
	}
	wk.tri = ReuseVec(wk.tri, 3*n)
	td, te, tau := wk.tri[:n], wk.tri[n:2*n], wk.tri[2*n:]
	tridiagonalize(wk.ev, wk.ed, wk.ee, tau)
	copy(td, wk.ed)
	copy(te, wk.ee)
	tridiagEigenvalues(wk.ed, wk.ee)
	wk.tridiagEigenvectors(td, te, wk.ed[:k], wk.evk)
	backTransform(wk.ev, tau, wk.evk)
	return wk.ed, wk.evk
}

// tridiagonalize reduces the symmetric matrix held in z's upper
// triangle to tridiagonal form T = QᵀAQ by Householder similarity
// transforms (the first half of EISPACK's tred2): on return d is T's
// diagonal and e[1:] its subdiagonal, and Q = P_{n-1}···P_1 with
// P_i = I − u·uᵀ/tau[i], u the leading i entries of row i of z (tau[i] = 0
// where column i needed no reflection).
func tridiagonalize(z *Matrix, d, e, tau []float64) {
	n := z.Rows
	for j := 0; j < n; j++ {
		d[j] = z.Data[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z.Data[j*n+i-1]
				z.Data[j*n+i] = 0
				z.Data[i*n+j] = 0
			}
			tau[i] = 0
			continue
		}
		// The Householder vector of column i's leading part, in d.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// e = A·d over the leading i x i block, from its stored triangle.
		for j := 0; j < i; j++ {
			f = d[j]
			z.Data[i*n+j] = f
			zj := z.Row(j)
			g = e[j] + zj[j]*f
			for k := j + 1; k < i; k++ {
				g += zj[k] * d[k]
				e[k] += zj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		// Rank-two update of the leading block.
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			zj := z.Row(j)
			for k := j; k < i; k++ {
				zj[k] -= f*e[k] + g*d[k]
			}
			d[j] = zj[i-1]
			zj[i] = 0
		}
		tau[i] = h
	}
	for j := 0; j < n; j++ {
		d[j] = z.Data[j*n+j]
	}
	e[0] = 0
}

// tridiagEigenvalues overwrites d with the eigenvalues, descending, of
// the symmetric tridiagonal matrix (d, e) of tridiagonalize, by
// implicit-shift QL iterations; e is destroyed.
func tridiagEigenvalues(d, e []float64) {
	n := len(d)
	copy(e, e[1:])
	e[n-1] = 0
	const eps = 0x1p-52
	// maxIter bounds the QL sweeps per eigenvalue (EISPACK allows 30; a
	// non-converging input — NaNs — leaves the loop through the negated
	// comparisons instead).
	const maxIter = 64
	var f, tst1 float64
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		if m > l {
			for iter := 0; iter < maxIter; iter++ {
				// Wilkinson-style shift from the leading 2 x 2.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				// The implicit QL sweep, from m down to l.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				var s, s2 float64
				for i := m - 1; i >= l; i-- {
					c3, c2, s2 = c2, c, s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if !(math.Abs(e[l]) > eps*tst1) {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	// Selection sort, descending.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] > d[k] {
				k = j
			}
		}
		d[i], d[k] = d[k], d[i]
	}
}

// tridiagEigenvectors fills row j of z with the unit eigenvector of the
// symmetric tridiagonal T (diagonal d, e[i] = T[i][i-1]) for its
// eigenvalue lam[j], lam descending, by inverse iteration as LAPACK's
// xSTEIN runs it: solve (T − λ_j·I)·x = b by pivoted LU from a
// pseudo-random start until x has grown, plus two more solves, and after
// every solve subtract from x, twice, its components along the vectors
// already found in the same cluster (eigenvalues within 1e-3·‖T‖ of
// their neighbour). Distinct starts are what separate the vectors of a
// repeated eigenvalue.
func (wk *SVDWork) tridiagEigenvectors(d, e, lam []float64, z *Matrix) {
	n := len(d)
	const (
		eps    = 0x1p-52
		maxIts = 5
		extra  = 2 // solves after the first that shows growth
	)
	var norm float64 // ‖T‖₁
	for i := range d {
		r := math.Abs(d[i]) + math.Abs(e[i])
		if i+1 < n {
			r += math.Abs(e[i+1])
		}
		norm = math.Max(norm, r)
	}
	if !(norm > 0) || n == 1 {
		// T = 0 (or 1 x 1): the unit vectors are eigenvectors. NaNs land
		// here too, and leave the rows what back-transforming makes them.
		for j := range lam {
			x := z.Row(j)
			for i := range x {
				x[i] = 0
			}
			x[j] = 1
		}
		return
	}
	ortol := 1e-3 * norm
	grown := math.Sqrt(0.1 / float64(n))
	wk.lu = ReuseVec(wk.lu, 4*n)
	if cap(wk.piv) < n {
		wk.piv = make([]bool, n)
	}
	f := tridiagLU{d: wk.lu[:n], du: wk.lu[n : 2*n], du2: wk.lu[2*n : 3*n], dl: wk.lu[3*n:], piv: wk.piv[:n]}
	rng := uint64(0x9e3779b97f4a7c15)
	cluster := 0
	for j, xj := range lam {
		x := z.Row(j)
		if j > 0 && math.Abs(xj-lam[j-1]) > ortol {
			cluster = j
		}
		for i := range x {
			rng = rng*6364136223846793005 + 1442695040888963407
			x[i] = float64(rng>>11)*0x1p-52 - 1
		}
		f.factor(d, e, xj, eps*norm)
		for its, checks := 0, 0; its < maxIts && checks <= extra; its++ {
			// Scale b so that x cannot overflow, as xSTEIN does.
			var sum float64
			for _, v := range x {
				sum += math.Abs(v)
			}
			Scal(float64(n)*norm*math.Max(eps, math.Abs(f.d[n-1]))/sum, x)
			f.solve(x)
			// Two Gram–Schmidt passes: the solve inflates x along the
			// whole cluster, and one pass leaves eps times that behind.
			for range 2 {
				for i := cluster; i < j; i++ {
					zi := z.Row(i)
					Axpy(-Dot(x, zi), zi, x)
				}
			}
			var top float64
			for _, v := range x {
				top = math.Max(top, math.Abs(v))
			}
			if top >= grown {
				checks++
			}
		}
		Scal(1/Nrm2(x), x)
	}
}

// tridiagLU is the LU factorization with partial pivoting of T − λ·I, T
// symmetric tridiagonal (LAPACK's xGTTRF layout): U's diagonal d and its
// two superdiagonals du, du2, L's multipliers dl, and piv[i] when rows i
// and i+1 were interchanged.
type tridiagLU struct {
	d, du, du2, dl []float64
	piv            []bool
}

// factor factors T − lam·I, T with diagonal td and subdiagonal te[1:],
// and raises every pivot smaller than tol in magnitude to ±tol: T − λ·I
// is singular to working precision by design, and the perturbed pivot
// is what makes the solve grow along the eigenvector.
func (f *tridiagLU) factor(td, te []float64, lam, tol float64) {
	n := len(td)
	for i := range td {
		f.d[i] = td[i] - lam
	}
	copy(f.du, te[1:])
	copy(f.dl, te[1:])
	for i := 0; i < n-1; i++ {
		f.du2[i] = 0
		if math.Abs(f.d[i]) >= math.Abs(f.dl[i]) {
			f.piv[i] = false
			if f.d[i] != 0 {
				f.dl[i] /= f.d[i]
				f.d[i+1] -= f.dl[i] * f.du[i]
			}
		} else {
			f.piv[i] = true
			fact := f.d[i] / f.dl[i]
			f.d[i] = f.dl[i]
			f.dl[i] = fact
			t := f.du[i]
			f.du[i] = f.d[i+1]
			f.d[i+1] = t - fact*f.d[i+1]
			if i < n-2 {
				f.du2[i] = f.du[i+1]
				f.du[i+1] *= -fact
			}
		}
	}
	for i, v := range f.d {
		if !(math.Abs(v) >= tol) {
			f.d[i] = math.Copysign(tol, v)
		}
	}
}

// solve overwrites x with (T − λ·I)⁻¹·x through the factorization
// (n ≥ 2).
func (f *tridiagLU) solve(x []float64) {
	n := len(x)
	for i := 0; i < n-1; i++ {
		if f.piv[i] {
			x[i], x[i+1] = x[i+1], x[i]
		}
		x[i+1] -= f.dl[i] * x[i]
	}
	x[n-1] /= f.d[n-1]
	x[n-2] = (x[n-2] - f.du[n-2]*x[n-1]) / f.d[n-2]
	for i := n - 3; i >= 0; i-- {
		x[i] = (x[i] - f.du[i]*x[i+1] - f.du2[i]*x[i+2]) / f.d[i]
	}
}

// backTransform overwrites each row y of z with Q·y, Q = P_{n-1}···P_1
// the reflectors tridiagonalize left in a and tau.
func backTransform(a *Matrix, tau []float64, z *Matrix) {
	for i := 1; i < a.Rows; i++ {
		if tau[i] == 0 {
			continue
		}
		u := a.Row(i)[:i]
		for j := 0; j < z.Rows; j++ {
			x := z.Row(j)[:i]
			Axpy(-Dot(u, x)/tau[i], u, x)
		}
	}
}
