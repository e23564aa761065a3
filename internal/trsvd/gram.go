package trsvd

import (
	"fmt"
	"math"

	"hypertensor/internal/dense"
)

// The Gram solver's thresholds. Both comparisons run on replicated
// values (the reduced Gram matrices), so every rank, thread count and
// transport takes the same branch.
const (
	// gramNullCut, times the column count, is the eigenvalue (relative
	// to the largest) at or below which a direction of G = AᵀA is taken
	// for a null direction of A: the rounding floor of the eigensolver.
	// Its column of U is left to completeBasis.
	gramNullCut = 1e-14
	// gramOrthTol is the ‖UᵀU − I‖_max above which U = A·V·Σ⁻¹ is
	// re-whitened through its small Gram matrix. The defect grows like
	// eps·(σ₁/σ_k)², so a well-conditioned solve skips the repair.
	gramOrthTol = 1e-12
)

// Gram computes the k leading left singular vectors of the operator
// from the eigendecomposition of its column-side Gram matrix: G = AᵀA
// in one symmetric rank-k pass (Operator.Gram), its k leading
// eigenpairs G·V_k = V_k·Λ_k by the serial tridiagonal eigensolver
// (dense.SymEig, which builds no other eigenvector), and U = A·V_k·Σ_k⁻¹
// in one block pass — the route of TuckerMPI and of BTAS's Tucker code.
// It is exact (no iteration, no tolerance, nothing to converge) and
// reads the matrix twice at BLAS3 intensity, where Lanczos reads it
// twice per Krylov step at GEMV intensity; what it pays is the
// Cols x Cols eigenproblem, O(Cols³) and serial, and squaring the
// condition number: singular values below ~1e-7·σ₁ are not resolved
// and their vectors come from completeBasis, which HOOI — after the
// dominant subspace only — does not notice. It is the solver for
// narrow matricizations; core.ResolveSVD holds the rule.
//
// U's orthogonality defect is eps·(σ₁/σ_k)², so U is checked through
// its k x k Gram matrix (one more small reduction) and re-whitened when
// the defect exceeds gramOrthTol; the whitening spans the same
// subspace but may rotate the columns within it, so after a repair
// Sigma describes the subspace, not the individual columns, and U must
// not be cut to its first j < k columns (Result.Sigma). The result
// is bitwise identical for every thread count and transport: both
// reductions run on fixed block grids and the eigensolver is serial.
// U and Sigma are the workspace's, and the whitening rotates U in place
// through a row-block scratch the workspace holds.
func Gram(op Operator, k int, opts Options) (*Result, error) {
	cols := op.Cols()
	if k <= 0 {
		return nil, fmt.Errorf("trsvd: k = %d must be positive", k)
	}
	if k > cols {
		return nil, fmt.Errorf("trsvd: k = %d exceeds column count %d", k, cols)
	}
	rows := op.LocalRows()
	ws := opts.work()

	g := dense.ReuseMatrixUninit(ws.gram, cols, cols)
	ws.gram = g
	ws.syrk = op.Gram(g, ws.syrk)
	lam, vt := ws.svd.SymEig(g, k)

	// W = V_k·Σ_k⁻¹, null directions left zero.
	w := dense.ReuseMatrix(ws.vk, cols, k)
	ws.vk = w
	sigma := dense.ReuseVec(ws.sigma, k)
	ws.sigma = sigma
	cut := gramNullCut * float64(cols) * lam[0]
	kept := 0
	for kept < k && lam[kept] > cut && lam[kept] > 1e-300 {
		sigma[kept] = math.Sqrt(lam[kept])
		inv := 1 / sigma[kept]
		for i, v := range vt.Row(kept) {
			w.Data[i*k+kept] = v * inv
		}
		kept++
	}
	u := dense.ReuseMatrixUninit(ws.u, rows, k)
	ws.u = u
	op.MatMat(w, u)

	c := dense.ReuseMatrix(ws.gram2, k, k)
	ws.gram2 = c
	op.RowGram(u, c)
	if defect := orthDefect(c, kept); !(defect <= gramOrthTol) {
		wh := dense.ReuseMatrix(ws.white, k, k)
		ws.white = wh
		ws.svd.GramWhitenInto(wh, c)
		ws.scratch.Rotate(u, wh, op.Dense().Threads)
	}
	if kept < k {
		completeBasis(op, u, sigma, opts, ws)
	}
	return &Result{U: u, Sigma: sigma, MatVecs: k, Passes: 2, Converged: true}, nil
}

// orthDefect is ‖C − I‖_max over the leading kept x kept block of a
// panel's Gram matrix C = UᵀU: U's orthogonality defect.
func orthDefect(c *dense.Matrix, kept int) float64 {
	var defect float64
	for i := 0; i < kept; i++ {
		for j := 0; j < kept; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if d := math.Abs(c.At(i, j) - want); !(d <= defect) {
				defect = d
			}
		}
	}
	return defect
}
