package dense

import "math"

// SymEig computes the eigendecomposition of a symmetric matrix g, of
// which only the upper triangle is read: Householder reduction to
// tridiagonal form, then implicit-shift QL iterations (the EISPACK
// tred2/tql2 pair LAPACK's xSYEV descends from). It returns the
// eigenvalues, descending, and a matrix whose ROW j is the unit
// eigenvector of lam[j] — the transposed layout keeps every inner loop
// of both phases on contiguous rows. Both are workspace-owned and
// overwritten by the next call.
//
// The cost is ~(8/3)n³ flops for the reduction and its accumulation
// plus ~3n² per QL rotation sweep, several times below the one-sided
// Jacobi SVD on the n ≈ 100 Gram matrices of the Gram TRSVD solver. The
// computation is serial, so the result is the same bits on every thread
// count and rank. Eigenvalues are accurate to a few ulps of the largest
// one in magnitude; those of a positive semi-definite g may come back
// as small negative numbers.
func (wk *SVDWork) SymEig(g *Matrix) (lam []float64, vt *Matrix) {
	n := g.Rows
	if g.Cols != n {
		panic("dense: SymEig requires a square matrix")
	}
	wk.ev = ReuseMatrixUninit(wk.ev, n, n)
	copy(wk.ev.Data, g.Data)
	wk.ed = ReuseVec(wk.ed, n)
	wk.ee = ReuseVec(wk.ee, n)
	if n == 0 {
		return wk.ed, wk.ev
	}
	tridiagonalize(wk.ev, wk.ed, wk.ee)
	tridiagQL(wk.ev, wk.ed, wk.ee)
	return wk.ed, wk.ev
}

// tridiagonalize reduces the symmetric matrix held in z's upper
// triangle to tridiagonal form by Householder similarity transforms and
// accumulates them: on return d is the diagonal, e[1:] the subdiagonal,
// and row j of z the j-th column of the orthogonal Q with A = Q·T·Qᵀ.
func tridiagonalize(z *Matrix, d, e []float64) {
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
			d[i] = 0
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
		d[i] = h
	}
	// Accumulate the transforms.
	for i := 0; i < n-1; i++ {
		z.Data[i*n+n-1] = z.Data[i*n+i]
		z.Data[i*n+i] = 1
		zi1 := z.Row(i + 1)[:i+1]
		if h := d[i+1]; h != 0 {
			for k := range zi1 {
				d[k] = zi1[k] / h
			}
			for j := 0; j <= i; j++ {
				zj := z.Row(j)[:i+1]
				Axpy(-Dot(zi1, zj), d[:i+1], zj)
			}
		}
		for k := range zi1 {
			zi1[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = z.Data[j*n+n-1]
		z.Data[j*n+n-1] = 0
	}
	z.Data[n*n-1] = 1
	e[0] = 0
}

// tridiagQL diagonalizes the symmetric tridiagonal matrix (d, e) of
// tridiagonalize with implicit-shift QL iterations, rotating the rows
// of z along, and sorts the eigenpairs by descending eigenvalue.
func tridiagQL(z *Matrix, d, e []float64) {
	n := z.Rows
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
					zi, zi1 := z.Row(i), z.Row(i+1)
					for k, hk := range zi1 {
						zi1[k] = s*zi[k] + c*hk
						zi[k] = c*zi[k] - s*hk
					}
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
	// Selection sort, descending; rows travel with their eigenvalues.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] > d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			zi, zk := z.Row(i), z.Row(k)
			for t := range zi {
				zi[t], zk[t] = zk[t], zi[t]
			}
		}
	}
}
