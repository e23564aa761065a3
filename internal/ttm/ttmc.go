package ttm

import (
	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// TTMc computes the mode-n matricized tensor-times-matrix-chain product
//
//	Y_(n)(i, :) = sum_{x_{i_1..i_N} in X, i_n = i} x * ⊗_{t≠n} U_t(i_t, :)
//
// (eq. 4 of the paper) for every nonempty slice i in sm.Rows, writing
// row r of y for slice sm.Rows[r]. y must be pre-shaped
// sm.NumRows() x RowSize(u, sm.N); it is overwritten. U[sm.N] is not
// referenced and may be nil.
//
// It is the star's leaf for sm, built for the call (BuildFlat): rows
// are computed independently (Algorithm 3 lines 5-8), each owned by
// exactly one worker so no locks are needed, and the accumulation order
// within a row is fixed by the symbolic structure, making the result
// bitwise deterministic for any thread count. The rows are split into
// per-worker chains of near-equal nonzero weight, with chunks stolen for
// irregular tails — the load-balance discipline the paper's scaling
// results rest on.
func TTMc(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, u []*dense.Matrix, threads int) {
	sym := &symbolic.Structure{Modes: []symbolic.Mode{*sm}}
	BuildFlat(x, sym, threads).TTMc(y, sm.N, u, threads)
}

// TTMcSched is TTMc; the schedule argument has one value, and the
// signature is the one the repository benchmark compiles against.
func TTMcSched(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, u []*dense.Matrix, threads int, _ par.Schedule) {
	TTMc(y, x, sm, u, threads)
}

// Flops returns the nominal multiply-add count of one TTMc call for the
// given mode: nnz * RowSize, a full-width rank-one update per nonzero. It
// is the W_TTMc statistic of Table III, which the partitioners balance
// and Result.FullSweepMadds reports — not what the kernel executes: it
// factors runs of nonzeros and counts what it ran (DTree.Flops).
func Flops(nnz, rowSize int) int64 { return int64(nnz) * int64(rowSize) }

// SweepFlops returns the nominal multiply-add count of one full HOOI
// sweep over all modes (the recompute-everything cost the kernel is
// measured against, not what it executes): sum over modes of Flops.
func SweepFlops(nnz int, u []*dense.Matrix) int64 {
	var total int64
	for n := range u {
		total += Flops(nnz, RowSize(u, n))
	}
	return total
}

// runRows executes an owner-computes row loop over [0, n) on balanced
// chains with work-stealing (chains() is not consulted when the loop
// runs inline, so callers can defer the partition computation).
func runRows(n, threads int, chains func() []int32, body func(worker, lo, hi int)) {
	if threads <= 1 || n <= 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	par.RunChains(chains(), threads, body)
}
