package core

import (
	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/trsvd"
)

// startWhitenCond is the Gram condition number λmax/λmin above which a
// start's first whitening pass is followed by a second one. One pass
// leaves ‖UᵀU − I‖_max at about 1e-15 + 2e-17·cond on random fills, so a
// tall mode (cond near 1) stops after one, and a square or near-square
// one (cond 1e2–1e5) takes the second, which brings it to ~1e-15.
const startWhitenCond = 100

// InitialFactors produces the initial orthonormal factor matrices
// (Algorithm 1, line 1) at the given per-mode ranks. Entry (i, j) of
// mode n's matrix is the counter-based sample trsvd.GaussHash(seed+n,
// i, j), so a row's draw depends on its index alone: the modes fill
// independently, in parallel over rows, and a mode with more rows
// extends the fill of one with fewer. Each filled matrix A is then
// orthonormalized by Gram whitening, the CholeskyQR2 discipline of the
// TRSVD solvers: G = AᵀA, A ← A·V·Λ^{-1/2} from G's eigenpairs, and a
// second pass when G was ill-conditioned. Every step is thread-invariant,
// so the start is the same bits for every thread count.
//
// It is the only start a decomposition takes besides Options.Initial.
// From it, one HOOI sweep is a randomized sequentially truncated HOSVD:
// mode n's product Y_(n) = X_(n)·(⊗_{t≠n} U_t) sketches X_(n) with the
// Kronecker product of the other modes' factors, random for the modes
// not yet solved and truncated for the ones solved, the design of
// Minster, Li & Ballard. So `hooi -iters 1` (or 2) is the one-pass
// Tucker, on the engine's own TTMc and solvers.
func InitialFactors(dims, ranks []int, seed int64, threads int) []*dense.Matrix {
	return randomFactors(dims, ranks, seed, threads, 0)
}

// randomFactors is InitialFactors for the modes from first on; the
// factors before it are nil. NewEngine starts at mode 1: a cold sweep
// computes mode 0's product from U_1…U_{N−1} and scatters mode 0's
// solve over U_0 before anything reads it
// (TestColdSweepNeverReadsFirstFactor), so U_0 is never drawn.
func randomFactors(dims, ranks []int, seed int64, threads, first int) []*dense.Matrix {
	factors := make([]*dense.Matrix, len(dims))
	var w whitener
	for n := first; n < len(factors); n++ {
		u := dense.NewMatrix(dims[n], ranks[n])
		fillStart(u, seed+int64(n), threads)
		w.orthonormalize(u, threads)
		factors[n] = u
	}
	return factors
}

// fillStart writes GaussHash(seed, i, j) into every entry (i, j) of u,
// over row ranges on up to threads workers.
func fillStart(u *dense.Matrix, seed int64, threads int) {
	par.ForRange(u.Rows, threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := u.Row(i)
			for j := range row {
				row[j] = trsvd.GaussHash(seed, int64(i), int64(j))
			}
		}
	})
}

// whitener holds the small matrices and scratch of orthonormalize,
// reused across the modes of one start.
type whitener struct {
	g, c    *dense.Matrix
	work    []float64
	svd     dense.SVDWork
	scratch dense.Scratch
}

// orthonormalize overwrites u (rows >= cols, full column rank) with an
// orthonormal basis of its column space: u ← u·C with CᵀGC = I for
// G = uᵀu (dense.SVDWork.GramWhitenInto), once more when G's condition
// exceeds startWhitenCond.
func (w *whitener) orthonormalize(u *dense.Matrix, threads int) {
	k := u.Cols
	w.g = dense.ReuseMatrixUninit(w.g, k, k)
	w.c = dense.ReuseMatrixUninit(w.c, k, k)
	for range 2 {
		w.work = dense.SyrkInto(w.g, u, w.work, threads)
		_, cond := w.svd.GramWhitenInto(w.c, w.g)
		w.scratch.Rotate(u, w.c, threads)
		if cond <= startWhitenCond {
			return
		}
	}
}
