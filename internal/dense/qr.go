package dense

// QR computes a thin Householder QR factorization of a (m x n, m >= n):
// a = Q*R with Q m x n having orthonormal columns and R n x n upper
// triangular. a is not modified. It is a test oracle: the initial
// factors and the solvers orthonormalize by Gram whitening instead
// (SVDWork.GramWhitenInto), and tests check their bases against it.
func QR(a *Matrix) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("dense: QR requires rows >= cols")
	}
	// Work on a column-major copy so each column is contiguous.
	w := a.T() // n x m: w.Row(j) is column j of a
	vs := make([][]float64, n)
	r = NewMatrix(n, n)
	for j := 0; j < n; j++ {
		col := w.Row(j)
		// Apply the previous reflectors to column j.
		for k := 0; k < j; k++ {
			v := vs[k]
			tau := 2 * Dot(v[k:], col[k:])
			Axpy(-tau, v[k:], col[k:])
			r.Set(k, j, col[k])
		}
		// Build the reflector eliminating col[j+1:].
		alpha := Nrm2(col[j:])
		if col[j] > 0 {
			alpha = -alpha
		}
		v := make([]float64, m)
		copy(v[j:], col[j:])
		v[j] -= alpha
		if nv := Nrm2(v[j:]); nv > 0 {
			Scal(1/nv, v[j:])
		}
		vs[j] = v
		r.Set(j, j, alpha)
	}
	// Form thin Q by applying the reflectors to the first n columns of I.
	q = NewMatrix(m, n)
	col := make([]float64, m)
	for k := 0; k < n; k++ {
		for i := range col {
			col[i] = 0
		}
		col[k] = 1
		for j := n - 1; j >= 0; j-- {
			v := vs[j]
			tau := 2 * Dot(v[j:], col[j:])
			Axpy(-tau, v[j:], col[j:])
		}
		for i := 0; i < m; i++ {
			q.Set(i, k, col[i])
		}
	}
	return q, r
}
