package trsvd

import (
	"fmt"
	"math"

	"hypertensor/internal/dense"
)

// Options control the solvers. Every numerical setting — the Krylov
// cap and residual tolerance of Lanczos, the oversampling, power-round
// cap and Ritz tolerance of the randomized solver — is a constant of
// the solver that reads it.
type Options struct {
	// Seed makes start vectors (and any basis completion) deterministic.
	Seed int64
	// Work optionally supplies a reusable Workspace so repeated solver
	// calls (one per mode per HOOI sweep) allocate nothing in steady
	// state. nil allocates scratch per call. A workspace must not be
	// shared between concurrent solver calls.
	Work *Workspace
}

// Result holds the leading singular triplets computed by a solver.
type Result struct {
	// U has LocalRows rows and k columns: this rank's rows of the k
	// leading left singular vectors. It is the workspace's (Options.Work,
	// or a throwaway one when that is nil) and valid until the
	// workspace's next solve.
	U *dense.Matrix
	// Sigma are the singular value estimates, descending; the
	// workspace's, like U. Under Lanczos and Randomized, column j of U
	// is Sigma[j]'s vector, so the first j columns of U span the leading
	// j-dimensional subspace and U may be cut to them. Under Gram that
	// holds only when its orthogonality repair did not run, which the
	// caller cannot tell: a repaired U spans the leading k-dimensional
	// subspace in rotated columns, and its first j columns are not the
	// leading j directions. Solve at the k wanted instead of cutting a
	// Gram U.
	Sigma []float64
	// MatVecs counts operator applications: one per MatVec or MatTVec,
	// one per column of a block application. A Gram solve reports the k
	// columns of its projection pass.
	MatVecs int
	// Passes counts sweeps over the operator's matrix: one per MatVec,
	// MatTVec or block application, two for a Gram solve (the symmetric
	// rank-k product and the projection).
	Passes int
	// Converged reports whether all k residuals met lanczosTol before
	// the Krylov cap (maxDim) was reached. HOOI tolerates approximate
	// vectors, so callers usually proceed either way.
	Converged bool
}

// lanczosTol is the relative residual tolerance for a Lanczos triplet
// to count as converged.
const lanczosTol = 1e-9

// maxDim caps the Krylov subspace dimension of a k-vector Lanczos solve
// on cols columns: min(cols, max(2k+10, 30)), and never below k.
func maxDim(k, cols int) int {
	d := max(2*k+10, 30)
	if d > cols {
		d = cols
	}
	if d < k {
		d = k
	}
	return d
}

// Lanczos computes the k leading left singular vectors of the operator
// with Golub–Kahan–Lanczos bidiagonalization and full
// reorthogonalization. The bidiagonalization produces A·V = U·B with B
// upper bidiagonal; the small SVD of B (one-sided Jacobi) yields Ritz
// triplets whose residuals β·|p_s| gate convergence. On breakdown
// (invariant subspace found) the Krylov space is restarted with a fresh
// deterministic vector orthogonal to the current basis, so
// rank-deficient matrices still yield a full orthonormal basis.
//
// The Krylov bases live in workspace matrices (one row per basis
// vector), reorthogonalization runs two-pass classical Gram–Schmidt
// against the whole basis (one coefficient sweep, one update sweep —
// both streaming over contiguous rows), and the per-iteration Ritz
// check reuses the workspace SVD, so an iteration allocates nothing
// beyond the operator applications.
func Lanczos(op Operator, k int, opts Options) (*Result, error) {
	cols := op.Cols()
	if k <= 0 {
		return nil, fmt.Errorf("trsvd: k = %d must be positive", k)
	}
	if k > cols {
		return nil, fmt.Errorf("trsvd: k = %d exceeds column count %d", k, cols)
	}
	rows := op.LocalRows()
	maxDim := maxDim(k, cols)
	ws := opts.work()
	threads := denseOf(op).Threads

	// Krylov bases: V (col space, replicated) and U (row space, local),
	// one basis vector per matrix row. Uninitialized reuse is safe —
	// row s is fully written (hashUnit / copy) before anything reads
	// it, and only rows < s are ever read — and skips megabytes of
	// memset per solve on large modes.
	vb := dense.ReuseMatrixUninit(ws.vb, maxDim, cols)
	ws.vb = vb
	ub := dense.ReuseMatrixUninit(ws.ub, maxDim, rows)
	ws.ub = ub
	alphas := dense.ReuseVec(ws.alphas, maxDim)
	ws.alphas = alphas
	betas := dense.ReuseVec(ws.betas, maxDim) // betas[j] couples v_{j+1} with u_j
	ws.betas = betas
	coeff := dense.ReuseVec(ws.coeff, maxDim)
	ws.coeff = coeff
	tmpV := dense.ReuseVec(ws.vecCols, cols)
	ws.vecCols = tmpV
	tmpU := dense.ReuseVec(ws.vecRows, rows)
	ws.vecRows = tmpU

	res := &Result{}
	colID := func(i int) int64 { return int64(i) }

	// Start vector in the column space: deterministic pseudo-random.
	v := vb.Row(0)
	hashUnit(v, opts.Seed+1, colID)
	normalizeCols(v)

	// First step: u_1 = A v_1 / alpha_1.
	u := ub.Row(0)
	op.MatVec(v, u)
	res.MatVecs++
	alpha := math.Sqrt(op.RowDot(u, u))
	restartSeed := opts.Seed + 100
	if alpha <= 1e-300 {
		// A v = 0: restart with another direction below inside the loop
		// machinery; record a zero column pair.
		alpha = 0
	} else {
		scal(1/alpha, u)
	}
	alphas[0] = alpha
	s := 1

	for s < maxDim {
		// r = A^T u_s - alpha_s v_s, reorthogonalized against V.
		op.MatTVec(ub.Row(s-1), tmpV)
		res.MatVecs++
		dense.Axpy(-alphas[s-1], vb.Row(s-1), tmpV)
		reorthCols(tmpV, ws, s, threads)
		beta := dense.Nrm2(tmpV)
		// Ritz residual test with the fresh coupling beta: for the SVD
		// B_s = P Σ Qᵀ of the current bidiagonal, the residual of the
		// i-th triplet is beta * |P(s-1, i)|. The projected SVD costs
		// O(s³), so once the basis can hold k triplets the test runs
		// every other step — at worst two extra matvecs before a
		// convergence that would have been caught one step earlier,
		// against half the projected-SVD work on the common path.
		if s >= k && (s-k)%2 == 0 && ritzResidualsOK(alphas[:s], betas[:s-1], beta, k, lanczosTol, ws) {
			res.Converged = true
			break
		}
		if beta <= 1e-12*math.Max(1, alphas[s-1]) {
			// Invariant subspace: restart with a fresh direction
			// orthogonal to the existing V basis.
			restartSeed++
			hashUnit(tmpV, restartSeed, colID)
			reorthCols(tmpV, ws, s, threads)
			nrm := dense.Nrm2(tmpV)
			if nrm <= 1e-12 {
				break // column space exhausted
			}
			scal(1/nrm, tmpV)
			beta = 0
		} else {
			scal(1/beta, tmpV)
		}
		copy(vb.Row(s), tmpV)

		// p = A v_{s+1} - beta_s u_s, reorthogonalized against U.
		op.MatVec(vb.Row(s), tmpU)
		res.MatVecs++
		if beta != 0 {
			axpyLocal(-beta, ub.Row(s-1), tmpU)
		}
		reorthRows(op, tmpU, ub, s, coeff)
		alphaNext := math.Sqrt(op.RowDot(tmpU, tmpU))
		if alphaNext > 1e-300 {
			scal(1/alphaNext, tmpU)
		} else {
			alphaNext = 0
			zero(tmpU)
		}
		copy(ub.Row(s), tmpU)
		betas[s-1] = beta
		alphas[s] = alphaNext
		s++
	}

	u2, sigma := ritzExtract(op, ub, s, alphas[:s], betas[:s-1], k, opts, ws)
	res.U = u2
	res.Sigma = sigma
	res.Passes = res.MatVecs
	return res, nil
}

// ritzResidualsOK solves the projected SVD of the bidiagonal built from
// alphas (length s) and betas (length s-1) and checks the residual bound
// nextBeta * |P(s-1, i)| <= tol * sigma_max for the k leading triplets.
func ritzResidualsOK(alphas, betas []float64, nextBeta float64, k int, tol float64, ws *Workspace) bool {
	s := len(alphas)
	b := bidiagonalInto(ws, alphas, betas)
	// Only sigma_max and the last row of P are needed, so skip forming
	// the full U and V of the projected SVD.
	sig, last := ws.svd.SingularValuesLastRow(b)
	if sig[0] == 0 {
		return true // zero operator: trivially converged
	}
	for i := 0; i < k && i < s; i++ {
		if nextBeta*math.Abs(last[i]) > tol*sig[0] {
			return false
		}
	}
	return true
}

// bidiagonalInto assembles the small upper-bidiagonal matrix B from the
// recurrence coefficients in workspace storage.
func bidiagonalInto(ws *Workspace, alphas, betas []float64) *dense.Matrix {
	s := len(alphas)
	b := dense.ReuseMatrix(ws.bidiag, s, s)
	ws.bidiag = b
	for i := 0; i < s; i++ {
		b.Set(i, i, alphas[i])
		if i+1 < s {
			b.Set(i, i+1, betas[i])
		}
	}
	return b
}

// ritzExtract forms the k leading left singular vector approximations
// U_loc = [u_1 ... u_s] * P(:, :k) and completes the basis
// deterministically if the numerical rank fell short of k. The returned
// matrix always has exactly k columns and is the workspace's U.
func ritzExtract(op Operator, ub *dense.Matrix, s int, alphas, betas []float64, k int, opts Options, ws *Workspace) (*dense.Matrix, []float64) {
	rows := op.LocalRows()
	b := bidiagonalInto(ws, alphas, betas)
	p, sig, _ := ws.svd.SVD(b)
	u := dense.ReuseMatrix(ws.u, rows, k)
	ws.u = u
	sigma := dense.ReuseVec(ws.sigma, k)
	ws.sigma = sigma
	col := dense.ReuseVec(ws.col, rows)
	ws.col = col
	for j := 0; j < k && j < s; j++ {
		zero(col)
		for t := 0; t < s; t++ {
			if w := p.At(t, j); w != 0 {
				axpyLocal(w, ub.Row(t), col)
			}
		}
		for i := 0; i < rows; i++ {
			u.Set(i, j, col[i])
		}
		sigma[j] = sig[j]
	}
	completeBasis(op, u, sigma, opts, ws)
	return u, sigma
}

// completeBasis replaces numerically zero columns of u (arising from
// exactly rank-deficient operators) with deterministic pseudo-random
// directions orthogonalized against the other columns via RowDot-based
// modified Gram-Schmidt, so u always has orthonormal columns. Global row
// ids make the completion consistent across ranks.
func completeBasis(op Operator, u *dense.Matrix, sigma []float64, opts Options, ws *Workspace) {
	rows := u.Rows
	rowID := op.GlobalRow
	col := dense.ReuseVec(ws.col, rows)
	ws.col = col
	other := dense.ReuseVec(ws.other, rows)
	ws.other = other
	for j := 0; j < u.Cols; j++ {
		for i := 0; i < rows; i++ {
			col[i] = u.At(i, j)
		}
		nrm := math.Sqrt(op.RowDot(col, col))
		if nrm > 0.5 {
			continue // healthy column (they are near-unit by construction)
		}
		// Deterministic completion.
		for attempt := 0; attempt < 64; attempt++ {
			hashUnit(col, opts.Seed+1000+int64(j*64+attempt), rowID)
			for jj := 0; jj < u.Cols; jj++ {
				if jj == j {
					continue
				}
				for i := 0; i < rows; i++ {
					other[i] = u.At(i, jj)
				}
				d := op.RowDot(col, other)
				axpyLocal(-d, other, col)
			}
			nrm = math.Sqrt(op.RowDot(col, col))
			if nrm > 1e-6 {
				scal(1/nrm, col)
				for i := 0; i < rows; i++ {
					u.Set(i, j, col[i])
				}
				if j < len(sigma) {
					sigma[j] = 0
				}
				break
			}
		}
	}
}

// reorthCols orthogonalizes v (replicated column-space vector) against
// the first s rows of the workspace V basis with classical Gram-Schmidt:
// all coefficients in one GEMV sweep, then one fused update sweep. A
// second pass runs when the norm drops (CGS2), which is as robust as
// the modified variant for the small subspaces used here and twice as
// cache-friendly. threads is the solver's thread budget (denseOf).
func reorthCols(v []float64, ws *Workspace, s, threads int) {
	if s == 0 {
		return
	}
	vb := ws.vb
	view := &ws.vbView
	view.Rows, view.Cols = s, vb.Cols
	view.Data = vb.Data[:s*vb.Cols]
	coeff := ws.coeff[:s]
	for pass := 0; pass < 2; pass++ {
		before := dense.Nrm2(v)
		dense.GemvInto(coeff, view, v, threads)
		for t := 0; t < s; t++ {
			dense.Axpy(-coeff[t], vb.Row(t), v)
		}
		if dense.Nrm2(v) > 0.7*before {
			return
		}
	}
}

// reorthRows orthogonalizes u (row-space vector) against the first s
// rows of the U basis using the operator's global RowDot, classical
// Gram-Schmidt with a conditional second pass like reorthCols.
func reorthRows(op Operator, u []float64, basis *dense.Matrix, s int, coeff []float64) {
	if s == 0 {
		return
	}
	for pass := 0; pass < 2; pass++ {
		before := math.Sqrt(op.RowDot(u, u))
		for t := 0; t < s; t++ {
			coeff[t] = op.RowDot(u, basis.Row(t))
		}
		for t := 0; t < s; t++ {
			dense.Axpy(-coeff[t], basis.Row(t), u)
		}
		if math.Sqrt(op.RowDot(u, u)) > 0.7*before || before == 0 {
			return
		}
	}
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

func scal(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

func axpyLocal(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

func normalizeCols(v []float64) {
	n := dense.Nrm2(v)
	if n > 0 {
		scal(1/n, v)
	}
}
