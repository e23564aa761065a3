package trsvd

import (
	"fmt"
	"math"

	"hypertensor/internal/dense"
)

// GramOperator is the optional Operator extension the Gram solver runs
// on: the two block passes it makes over the matrix.
type GramOperator interface {
	Operator
	// Gram computes g = AᵀA (Cols x Cols, both triangles) over all
	// ranks' rows. Distributed implementations reduce the local product
	// so every rank receives the identical g. work is scratch the
	// implementation may grow; the caller keeps what is returned for the
	// next call.
	Gram(g *dense.Matrix, work []float64) []float64
	// MatMat computes Y = A·W over this rank's rows, with W Cols x b
	// (replicated) and Y LocalRows x b.
	MatMat(w, y *dense.Matrix)
}

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
// in one symmetric rank-k pass (GramOperator.Gram), G = V·Λ·Vᵀ by the
// serial tridiagonal eigensolver (dense.SymEig), and U = A·V_k·Σ_k⁻¹
// in one block pass — the route of TuckerMPI and of BTAS's Tucker code.
// It is exact (no iteration, no tolerance, nothing to converge) and
// reads the matrix twice at BLAS3 intensity, where Lanczos reads it
// twice per Krylov step at GEMV intensity; what it pays is the
// Cols x Cols eigenproblem, O(Cols³) and serial, and squaring the
// condition number: singular values below ~1e-7·σ₁ are not resolved
// and their vectors come from completeBasis, which HOOI — after the
// dominant subspace only — does not notice. It is the solver for
// narrow matricizations; SVDAuto in package core holds the rule.
//
// U's orthogonality defect is eps·(σ₁/σ_k)², so U is checked through
// its k x k Gram matrix (one more small reduction) and re-whitened when
// the defect exceeds gramOrthTol; the whitening spans the same
// subspace but may rotate the columns within it, so after a repair
// Sigma describes the subspace, not the individual columns. The result
// is bitwise identical for every thread count and transport: both
// reductions run on fixed block grids and the eigensolver is serial.
// All scratch lives in the workspace; only Result.U and Sigma are
// fresh.
func Gram(op Operator, k int, opts Options) (*Result, error) {
	gop, ok := op.(GramOperator)
	if !ok {
		return nil, fmt.Errorf("trsvd: the Gram solver needs a GramOperator, got %T", op)
	}
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
	ws.syrk = gop.Gram(g, ws.syrk)
	lam, vt := ws.svd.SymEig(g)

	// W = V_k·Σ_k⁻¹, null directions left zero.
	w := dense.ReuseMatrix(ws.vk, cols, k)
	ws.vk = w
	sigma := make([]float64, k)
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
	u := dense.NewMatrix(rows, k)
	gop.MatMat(w, u)

	c := dense.ReuseMatrix(ws.gram2, k, k)
	ws.gram2 = c
	rowGram(op, u, c, ws)
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
	if !(defect <= gramOrthTol) {
		wh := dense.ReuseMatrix(ws.white, k, k)
		ws.white = wh
		ws.svd.GramWhitenInto(wh, c)
		q := dense.ReuseMatrixUninit(ws.qpanel, rows, k)
		ws.qpanel = q
		dense.MatMulInto(q, u, wh, opThreads(op))
		copy(u.Data, q.Data)
	}
	if kept < k {
		completeBasis(op, u, sigma, opts, ws)
	}
	return &Result{U: u, Sigma: sigma, MatVecs: k, Passes: 2, Converged: true}, nil
}
