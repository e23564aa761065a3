package core

import (
	"context"
	"time"

	"hypertensor/internal/dense"
	"hypertensor/internal/tensor"
	"hypertensor/internal/ttm"
)

// Timings accumulates wall-clock time per HOOI phase across all
// iterations: what cmd/hooi's timings: line prints, and so the paper's
// Table V at each -threads count (a distributed run's phase times are
// dist.Stats).
type Timings struct {
	// Init is the one-time construction of the initial factors (the
	// counter-based fill, then its Gram whitening); it is reported by an
	// engine's first Run only.
	Init     time.Duration
	Symbolic time.Duration // one-time symbolic TTMc preprocessing (and, for updates, the merge and the kernel's symbolic maintenance)
	TTMc     time.Duration
	// TTMcNodes is the share of TTMc spent recomputing internal
	// dimension-tree nodes (zero for the star); the remainder
	// of TTMc is leaf emission.
	TTMcNodes time.Duration
	// TTMcModes is TTMc split by mode: entry n is the time of mode n's
	// TTMc, summed over the run's sweeps (under the tree, with the node
	// recomputations that mode triggered). The entries sum to TTMc.
	TTMcModes []time.Duration
	TRSVD     time.Duration
	Core      time.Duration
}

// Result is a computed Tucker decomposition [[G; U_1, ..., U_N]].
type Result struct {
	// Factors are the orthonormal factor matrices U_n (I_n x R_n). Rows
	// whose slices are empty in X are zero.
	Factors []*dense.Matrix
	// Core is the dense core tensor G of shape Ranks.
	Core *tensor.Dense
	// Fit is 1 - ||X - X̂||_F / ||X||_F of the final decomposition.
	Fit float64
	// FitHistory records the fit after every ALS sweep.
	FitHistory []float64
	// Iters is the number of completed ALS sweeps.
	Iters int
	// Timings is the phase breakdown.
	Timings Timings
	// TTMcFlops is the multiply-add count of all TTMc work performed
	// (dominant AXPY terms), as executed: for the flat strategy, per
	// mode and sweep, nnz x (row size / leading rank) + runs x row size;
	// for the dimension tree, the memoized count.
	TTMcFlops int64
	// TTMcRuns is, per mode, the star's runs per listed nonzero: about 1
	// on an unsorted input, which gets no run saving, a third on the
	// sorted presets. Nil under the binary tree.
	TTMcRuns []float64
	// TTMc is the TTMc strategy it ran, the plan's choice.
	TTMc TTMcStrategy
	// IndexBytes is the tensor's index storage: N x nnz x 4 bytes of
	// coordinate streams.
	IndexBytes int64
	// StreamBytes is what the engine's kernel copies into index streams
	// on top of that, its root children's group-order streams
	// (ttm.DTree.StreamBytes): 4 bytes per listed nonzero and mode a child
	// drops, for each child whose group order is not the storage order —
	// under the star 4(N-1) bytes per nonzero for every mode but, on a
	// sorted tensor, mode 0; under the binary tree, on a sorted tensor,
	// the second child's.
	StreamBytes int64
	// YBytes is the one buffer every mode's product Y_(n) takes turns in,
	// sized for the widest: rows x ∏_{t≠n} R_t doubles, where a split
	// mode's singleton rows take ∏_{t≠n,g} R_t each.
	YBytes int64
	// AllocsPerSweep is the steady-state heap allocation count per ALS
	// sweep (the first sweep, which grows the workspace arenas, is
	// excluded). Only measured when Options.MeasureAllocs is set; zero
	// otherwise.
	AllocsPerSweep int64
	// AllocBytesPerSweep is the heap bytes those allocations requested
	// per sweep (MemStats.TotalAlloc over the same window). A sweep
	// allocates no buffer of a factor's size, so this stays below the
	// smallest mode's rows x R_n x 8.
	AllocBytesPerSweep int64
	// ChosenRanks are the per-mode ranks the decomposition ended with:
	// equal to Options.Ranks for fixed-rank runs, the eps-selected ranks
	// for adaptive-rank (Options.Eps) runs.
	ChosenRanks []int
	// SVD is the TRSVD solver each mode runs: the one its shape resolves
	// to (ResolveSVD), and the randomized solver in every mode under Eps
	// — also on a resumed run that executed no sweep.
	SVD []SVDMethod
	// TRSVDMadds counts the operator multiply-adds spent inside the
	// TRSVD solves on this rank's rows, summed over all solves: operator
	// applications x matricization size for Lanczos and for the
	// randomized solver (its sketch flops); for a Gram solve of R vectors
	// from C columns the product YᵀY as it ran (rows x C(C+1)/2, or in a
	// split mode the Census's Split) plus Y·W as it ran (rows x C·R, or in
	// a split mode dense.KronMatMulMadds).
	TRSVDMadds int64
	// TRSVDSolves counts the mode solves and TRSVDPasses their sweeps
	// over Y_(n): two per Gram solve, one per operator application of a
	// Lanczos solve (58 when it runs into the default Krylov cap of 30).
	TRSVDSolves, TRSVDPasses int64
	// TRSVDUnconverged counts the solves that hit that cap with a
	// residual still above the solver's tolerance. HOOI proceeds on
	// their approximate vectors; a count near TRSVDSolves says every
	// Lanczos solve was cut short.
	TRSVDUnconverged int64
	// Census is each mode's singleton census, taken where the kernel was
	// built (ttm.Census): per mode, its one-nonzero rows, the grouping
	// mode and the predicted Gram madds both ways; a mode whose Gram
	// took the split (Census.Taken) solved from Y_(n) in split order. A
	// mode that is not Gram-solved holds Group -1 and no counts, and the
	// slice is nil where no mode took one (a distributed rank, Eps, the
	// dimension tree, an order other than 3).
	Census []ttm.Census

	// Update accounting, populated by Engine.Update (zero for cold
	// solves): the cost of the re-convergence next to one
	// recompute-everything flat sweep.

	// UpdateSweeps is the number of ALS sweeps the re-convergence took.
	UpdateSweeps int
	// UpdateMadds is the TTMc multiply-add count actually executed
	// during the re-convergence.
	UpdateMadds int64
	// FullSweepMadds is the multiply-add count of ONE recompute-
	// everything flat sweep over all modes at the post-update tensor
	// size — the cold-sweep yardstick UpdateMadds/UpdateSweeps is
	// measured against.
	FullSweepMadds int64
	// DeltaNNZ is the number of delta nonzeros ingested (after in-delta
	// deduplication): value changes plus insertions.
	DeltaNNZ int
}

// Decompose runs the shared-memory parallel HOOI algorithm
// (Algorithm 3) on a sparse tensor. It is deterministic for fixed
// Options regardless of thread count: each Y row is accumulated in
// symbolic order by a single worker, and the TRSVD start vectors are
// seeded.
//
// Decompose is a thin wrapper over the resident Plan/Engine pair —
// NewPlan (one-time symbolic analysis) + NewEngine + Run — that throws
// the handle away afterwards. Long-running callers that want to ingest
// tensor deltas and re-converge incrementally should hold the Engine
// instead.
func Decompose(x *tensor.COO, optsIn Options) (*Result, error) {
	p, err := NewPlan(x, optsIn)
	if err != nil {
		return nil, err
	}
	return NewEngine(p).Run(context.Background())
}

// scatterRows copies the compact TRSVD result (row r belongs to slice
// rows[r]) into the full factor matrix and leaves every other row as it
// is; Engine.scatter has zeroed them.
func scatterRows(full, compact *dense.Matrix, rows []int32) {
	for r, row := range rows {
		copy(full.Row(int(row)), compact.Row(r))
	}
}
