package trsvd

import (
	"fmt"
	"math"

	"hypertensor/internal/dense"
)

// GramSVD is the test oracle the iterative solvers are compared
// against: the k leading left singular vectors of a dense matrix
// through the explicit column-side Gram matrix G = AᵀA (cols x cols),
// whose eigenvectors V give U = A V Σ^{-1} — the Gram-eigen reference
// of BTAS's Tucker code. It shares no iteration logic with Lanczos or
// Randomized; only rank-deficient bases are completed by the same
// seeded completeBasis.
func GramSVD(a *dense.Matrix, k, threads int, opts Options) (*Result, error) {
	if k <= 0 || k > a.Cols {
		return nil, fmt.Errorf("trsvd: invalid k = %d for %d columns", k, a.Cols)
	}
	ws := opts.work()
	g := dense.MatMulTA(a, a, threads)
	v, lam, _ := ws.svd.SVD(g)
	vk := dense.NewMatrix(a.Cols, k)
	sigma := make([]float64, k)
	inv := make([]float64, k)
	for j := 0; j < k; j++ {
		sv := math.Sqrt(math.Max(lam[j], 0))
		sigma[j] = sv
		if sv <= 1e-300 {
			continue // zero column, completed below
		}
		inv[j] = 1 / sv
		for i := 0; i < a.Cols; i++ {
			vk.Set(i, j, v.At(i, j))
		}
	}
	u := dense.NewMatrix(a.Rows, k)
	dense.MatMulInto(u, a, vk, threads)
	for i := 0; i < u.Rows; i++ {
		row := u.Row(i)
		for j, s := range inv {
			row[j] *= s
		}
	}
	completeBasis(&DenseOperator{A: a, Threads: threads}, u, sigma, opts, ws)
	return &Result{U: u, Sigma: sigma, Converged: true}, nil
}
