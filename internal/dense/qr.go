package dense

import (
	"math"

	"hypertensor/internal/par"
)

// QR computes a thin Householder QR factorization of a (m x n, m >= n):
// a = Q*R with Q m x n having orthonormal columns and R n x n upper
// triangular. a is not modified. It is the orthonormalization kernel
// used to initialize factor matrices and inside the subspace-iteration
// TRSVD variant.
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

// Orthonormalize overwrites a (rows >= cols) with a matrix whose columns
// form an orthonormal basis containing a's column space, and returns it:
// the Q factor of QR, signs included, so a start built from it does not
// move. Rank deficiency is tolerated: numerically zero columns of Q are
// replaced by coordinate directions orthogonalized against the rest, so
// the result always has exactly a.Cols orthonormal columns.
//
// It is Householder QR for tall-skinny input, row-major and in place.
// Reflector j is u_j = x - alpha*e_j with H_j = I - beta_j*u_j*u_j^T;
// u_j stays where x was. One pass over the rows per column applies
// reflector j-1 to the row's trailing entries and sums column j's dot
// products with them, which is all reflector j needs; Q = (I -
// U*T*U^T)[I; 0] (compact WY) is then one more row pass. Every sum over
// rows goes through par.ReduceRows, so the result is bitwise identical
// for every thread count.
func Orthonormalize(a *Matrix, threads int) *Matrix {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("dense: Orthonormalize requires rows >= cols")
	}
	if m*n < serialCutoff {
		threads = 1
	}
	q := a // from here on it holds U, then Q
	// part holds par.ReduceRows's partials across the row passes.
	var part []float64
	d, g, beta := make([]float64, 2*n), make([]float64, n), make([]float64, n)
	gram, t := make([]float64, n*n), make([]float64, n*n)
	nm := make([]float64, (n+3)*n) // -T*Utop^T, then three rows of zeros for Axpy4's last step

	for j := 0; j < n; j++ {
		// d[k], k >= j: column j (reflector j-1 applied) dot column k;
		// d[n+l], l < j: u_l dot column j, T's raw material.
		part = par.ReduceRows(d, m, threads, part, par.SummerFunc(func(p []float64, lo, hi int) {
			gj, pj, ph := g[j:n], p[j:n], p[n:n+j]
			for i := max(lo, j); i < hi; i++ {
				head, row, u := q.Data[i*n:i*n+j], q.Data[i*n+j:(i+1)*n], 0.0
				if j > 0 {
					u = head[j-1]
				}
				x := row[0] - u*gj[0]
				for k, gk := range gj {
					v := row[k] - u*gk
					row[k] = v
					pj[k] += x * v
				}
				for l, ul := range head {
					ph[l] += ul * x
				}
			}
		}))
		row := q.Row(j)
		x0, alpha := row[j], math.Sqrt(d[j])
		if x0 > 0 {
			alpha = -alpha
		}
		// |u|^2 = 2*(x.x - alpha*x0), free of cancellation by alpha's sign.
		if h := d[j] - alpha*x0; h > 0 {
			beta[j] = 1 / h
		}
		for k := j + 1; k < n; k++ {
			g[k] = beta[j] * (d[k] - alpha*row[k])
		}
		row[j] = x0 - alpha
		for l := 0; l < j; l++ {
			gram[l*n+j] = d[n+l] - alpha*row[l]
		}
	}

	// T, upper triangular, column by column; then nm = -T*Utop^T.
	for j := 0; j < n; j++ {
		t[j*n+j] = beta[j]
		for k := 0; k < j; k++ {
			var s float64
			for l := k; l < j; l++ {
				s += t[k*n+l] * gram[l*n+j]
			}
			t[k*n+j] = -beta[j] * s
		}
	}
	for l := 0; l < n; l++ {
		for c := l; c < n; c++ {
			var s float64
			for k := l; k <= c; k++ {
				s -= t[l*n+k] * q.At(c, k)
			}
			nm[l*n+c] = s
		}
	}
	// Q[i,:] = e_i + U[i,:]*nm, with the column norms riding along. Row
	// i < n of U ends at its diagonal; what lies beyond is R's.
	par.ReduceRows(d[:n], m, threads, part, par.SummerFunc(func(p []float64, lo, hi int) {
		u := make([]float64, n+3)
		for i := lo; i < hi; i++ {
			row := q.Row(i)
			clear(u[copy(u, row[:min(i+1, n)]):])
			clear(row)
			if i < n {
				row[i] = 1
			}
			for k := 0; k < n; k += 4 {
				Axpy4(u[k], u[k+1], u[k+2], u[k+3], nm[k*n:], n, row)
			}
			for c, v := range row {
				p[c] += v * v
			}
		}
	}))
	for j, s := range d[:n] {
		if math.Sqrt(s) < 1e-12 {
			reseedColumn(q, j)
		}
	}
	return q
}

// reseedColumn replaces column j of q by a coordinate vector
// orthogonalized against the other columns (modified Gram-Schmidt).
func reseedColumn(q *Matrix, j int) {
	m := q.Rows
	for try := 0; try < m; try++ {
		col := make([]float64, m)
		col[(j+try)%m] = 1
		for k := 0; k < q.Cols; k++ {
			if k == j {
				continue
			}
			var d float64
			for i := 0; i < m; i++ {
				d += q.At(i, k) * col[i]
			}
			for i := 0; i < m; i++ {
				col[i] -= d * q.At(i, k)
			}
		}
		nrm := Nrm2(col)
		if nrm > 1e-8 {
			Scal(1/nrm, col)
			for i := 0; i < m; i++ {
				q.Set(i, j, col[i])
			}
			return
		}
	}
}
