package trsvd

import (
	"hypertensor/internal/dense"
)

// Operator is a matrix-free view of a rows x cols matrix whose row space
// may be distributed across SPMD ranks (each rank sees LocalRows rows).
// Column-space vectors and panels (Cols rows) are replicated: every rank
// passes identical x to MatVec and receives identical x from MatTVec;
// distributed implementations reduce every column-space result across
// ranks in a fixed order. Both implementations — DenseOperator and the
// row-distributed Y_(n) of package dist — provide every method, so the
// solvers have one path.
type Operator interface {
	// LocalRows is the number of rows stored by this rank (all rows in
	// the shared-memory case).
	LocalRows() int
	// Cols is the (global, replicated) column count.
	Cols() int
	// MatVec computes y = A x with len(x) = Cols, len(y) = LocalRows.
	MatVec(x, y []float64)
	// MatTVec computes x = Aᵀ y with len(y) = LocalRows, len(x) = Cols.
	MatTVec(y, x []float64)
	// RowDot returns the global inner product of two row-space vectors
	// (length LocalRows on this rank).
	RowDot(a, b []float64) float64
	// GlobalRow is a stable global id for a local row. The solvers seed
	// the pseudo-random row-space vectors that complete a rank-deficient
	// basis from it, so the completion agrees across ranks.
	GlobalRow(local int) int64
	// MatMat computes Y = A·W with W Cols x b (replicated) and Y
	// LocalRows x b — one pass over A for the whole panel.
	MatMat(w, y *dense.Matrix)
	// MatTMat computes Z = Aᵀ·Y with Y LocalRows x b and Z Cols x b —
	// one pass over A, and one reduction, for the whole panel.
	MatTMat(y, z *dense.Matrix)
	// RowGram computes the global Gram matrix g = YᵀY (b x b) of a
	// row-space panel Y (LocalRows x b): the one reduction the
	// randomized solver's CholeskyQR2 whitening and the Gram solver's
	// orthogonality check make per panel.
	RowGram(y, g *dense.Matrix)
	// Gram computes g = AᵀA (Cols x Cols, both triangles). work is
	// scratch the implementation may grow; the caller keeps what is
	// returned for the next call.
	Gram(g *dense.Matrix, work []float64) []float64
}

// DenseOperator adapts an in-memory dense matrix (the compacted TTMc
// result) to the Operator interface, using the threaded GEMV kernels —
// the shared-memory TRSVD path of §III.A.2. Kron, when set, holds the
// matrix's rows past A compactly as grouped Kronecker products (a mode of
// the flat kernel in split order, ttm.Flat.SplitSingletons): the
// operator is then the matrix dense.KronRows describes, A its first
// rows. Every method runs the dense Kron kernels, which make the plain
// kernels' calls when Kron is nil, except that MatVec and MatTVec then
// run the GEMVs.
type DenseOperator struct {
	A       *dense.Matrix
	Threads int
	Kron    *dense.KronRows
	x, y    dense.Matrix // MatVec's and MatTVec's columns, kept from escaping
}

// LocalRows returns the row count of the wrapped matrix.
func (o *DenseOperator) LocalRows() int { return o.A.Rows + o.Kron.Rows() }

// Cols returns the column count of the wrapped matrix.
func (o *DenseOperator) Cols() int { return o.A.Cols }

// MatVec computes y = A x with the threaded GEMV kernel.
func (o *DenseOperator) MatVec(x, y []float64) {
	if o.Kron == nil {
		dense.Gemv(o.A, x, y, o.Threads)
		return
	}
	o.x, o.y = dense.Matrix{Rows: len(x), Cols: 1, Data: x}, dense.Matrix{Rows: len(y), Cols: 1, Data: y}
	o.MatMat(&o.x, &o.y)
}

// MatTVec computes x = Aᵀ y with the threaded transposed GEMV kernel.
func (o *DenseOperator) MatTVec(y, x []float64) {
	if o.Kron == nil {
		dense.GemvT(o.A, y, x, o.Threads)
		return
	}
	o.x, o.y = dense.Matrix{Rows: len(x), Cols: 1, Data: x}, dense.Matrix{Rows: len(y), Cols: 1, Data: y}
	o.MatTMat(&o.y, &o.x)
}

// RowDot is a plain local dot product over this rank's rows — long
// vectors, so the 4-way unrolled kernel pays. Every row-space inner
// product in the solvers goes through RowDot, keeping one association
// per solver run.
func (o *DenseOperator) RowDot(a, b []float64) float64 { return dense.DotUnrolled(a, b) }

// GlobalRow is the identity in the shared-memory case.
func (o *DenseOperator) GlobalRow(local int) int64 { return int64(local) }

// MatMat computes Y = A·W in one BLAS3 pass (register-tiled GEMM)
// instead of W.Cols separate GEMVs.
func (o *DenseOperator) MatMat(w, y *dense.Matrix) {
	dense.KronMatMulInto(y, o.A, o.Kron, w, o.Threads)
}

// MatTMat computes Z = Aᵀ·Y in one BLAS3 pass with the fixed-block
// deterministic reduction.
func (o *DenseOperator) MatTMat(y, z *dense.Matrix) {
	dense.KronMatMulTAInto(z, o.A, o.Kron, y, o.Threads)
}

// RowGram computes g = YᵀY with the fixed-block deterministic BLAS3
// reduction.
func (o *DenseOperator) RowGram(y, g *dense.Matrix) { dense.MatMulTAInto(g, y, y, o.Threads) }

// Gram computes g = AᵀA with the threaded symmetric rank-k kernel.
func (o *DenseOperator) Gram(g *dense.Matrix, work []float64) []float64 {
	return dense.SyrkKronInto(g, o.A, o.Kron, work, o.Threads)
}

// GramMadds is the multiply-adds op.Gram runs on this rank's rows: a
// DenseOperator's as its Kron counts them, the upper triangle of every
// row's term for any other operator.
func GramMadds(op Operator) int64 {
	return denseOf(op).Kron.SyrkMadds(op.LocalRows(), op.Cols())
}

// MatMatMadds is the multiply-adds op.MatMat runs on this rank's rows
// for a panel of k columns: a DenseOperator's as its Kron counts them,
// every row at full width for any other operator.
func MatMatMadds(op Operator, k int) int64 {
	return denseOf(op).Kron.MatMulMadds(op.LocalRows(), op.Cols(), k)
}

var _ Operator = (*DenseOperator)(nil)

// denseOf returns op if it is a DenseOperator and otherwise notDense: no
// Kron rows, and one thread for the solver's own dense work, since a
// distributed operator's rank goroutines each run a solver concurrently.
func denseOf(op Operator) *DenseOperator {
	if d, ok := op.(*DenseOperator); ok {
		return d
	}
	return &notDense
}

// notDense is read-only.
var notDense = DenseOperator{Threads: 1}

// hashUnit fills v with deterministic pseudo-random values derived from
// (seed, id(i)) and is used to (re)start Krylov spaces and complete
// bases consistently across ranks. The generator is SplitMix64.
func hashUnit(v []float64, seed int64, id func(int) int64) {
	for i := range v {
		z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id(i))*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		// Map to (-1, 1).
		v[i] = 2*float64(z>>11)/float64(1<<53) - 1
	}
}
