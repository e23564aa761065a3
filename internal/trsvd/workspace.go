package trsvd

import "hypertensor/internal/dense"

// Workspace holds every buffer the solvers need: Krylov bases, block
// panels, projected matrices, reduction scratch, the small-SVD
// workspace, the dense kernels' state, and the returned U itself. HOOI calls a TRSVD solver once
// per mode per sweep on matrices whose shapes repeat exactly, so a
// workspace threaded through Options.Work makes the steady-state sweep
// allocate nothing but the Result struct. Result.U and Result.Sigma
// live in the workspace and stay valid until the workspace's next
// solve, which overwrites them; a caller that keeps them longer copies
// them. No solver reads what a previous call left in it.
//
// The zero value is ready to use; buffers grow on demand and are kept
// at high-water size. A workspace is not safe for concurrent use: give
// each goroutine (each simulated rank, each benchmark worker) its own.
type Workspace struct {
	svd dense.SVDWork

	// Lanczos: Krylov bases stored as matrix rows, recurrence
	// coefficients, reorthogonalization coefficients, and the projected
	// bidiagonal.
	vb, ub        *dense.Matrix
	vbView        dense.Matrix
	alphas, betas []float64
	coeff         []float64
	bidiag        *dense.Matrix
	vecRows       []float64
	vecCols       []float64

	// Block panels (randomized sketch, Gram).
	panelW         *dense.Matrix
	panelY, panelZ *dense.Matrix
	gram, vk       *dense.Matrix

	// Small vectors shared by ritz extraction and basis completion.
	col, other []float64

	// Randomized sketch solver: the transposed replicated panel the CGS2
	// orthonormalization streams over and the header of its rows above
	// the one at hand, the projected B = AᵀQ panel, the two
	// Gram-whitening combinations and their product, the local whitened
	// panel, and the previous power round's top-k Ritz energies within
	// one solve.
	sketchT, panelB *dense.Matrix
	sketchView      dense.Matrix
	white, white2   *dense.Matrix
	qpanel, gram2   *dense.Matrix
	ritzPrev        []float64

	// Gram: the block partials of the symmetric rank-k product (gram, vk,
	// gram2 and white above hold its small matrices). scratch is the
	// solvers' own dense kernels' state, Gram's re-whitening of U's too.
	syrk    []float64
	scratch dense.Scratch

	// Every solver's Result.U and Result.Sigma.
	u     *dense.Matrix
	sigma []float64
}

// NewWorkspace returns an empty workspace ready for Options.Work.
func NewWorkspace() *Workspace { return &Workspace{} }

// work returns the caller-supplied workspace, or a throwaway one so
// the solvers run identically (just with allocations) when none is
// given.
func (o Options) work() *Workspace {
	if o.Work != nil {
		return o.Work
	}
	return &Workspace{}
}
