package trsvd

import (
	"hypertensor/internal/dense"
)

// Operator is a matrix-free view of a rows x cols matrix whose row space
// may be distributed across SPMD ranks (each rank sees LocalRows rows).
// Column-space vectors (length Cols) are replicated: every rank passes
// identical x to MatVec and receives identical x from MatTVec.
type Operator interface {
	// LocalRows is the number of rows stored by this rank (all rows in
	// the shared-memory case).
	LocalRows() int
	// Cols is the (global, replicated) column count.
	Cols() int
	// MatVec computes y = A x with len(x) = Cols, len(y) = LocalRows.
	MatVec(x, y []float64)
	// MatTVec computes x = Aᵀ y with len(y) = LocalRows, len(x) = Cols.
	// In distributed implementations the result is reduced across ranks
	// so every rank receives the identical global x.
	MatTVec(y, x []float64)
	// RowDot returns the global inner product of two row-space vectors
	// (length LocalRows on this rank). Distributed implementations
	// AllReduce the local partial dot.
	RowDot(a, b []float64) float64
}

// GlobalRowIDer is an optional extension giving a stable global id for
// each local row. The solvers use it to generate deterministic
// pseudo-random row-space vectors that agree across ranks when an
// orthonormal basis must be completed after rank-deficiency.
type GlobalRowIDer interface {
	GlobalRow(local int) int64
}

// DenseOperator adapts an in-memory dense matrix (the compacted TTMc
// result) to the Operator interface, using the threaded GEMV kernels —
// the shared-memory TRSVD path of §III.A.2.
type DenseOperator struct {
	A       *dense.Matrix
	Threads int
}

// LocalRows returns the row count of the wrapped matrix.
func (o *DenseOperator) LocalRows() int { return o.A.Rows }

// Cols returns the column count of the wrapped matrix.
func (o *DenseOperator) Cols() int { return o.A.Cols }

// MatVec computes y = A x with the threaded GEMV kernel.
func (o *DenseOperator) MatVec(x, y []float64) { dense.Gemv(o.A, x, y, o.Threads) }

// MatTVec computes x = Aᵀ y with the threaded transposed GEMV kernel.
func (o *DenseOperator) MatTVec(y, x []float64) { dense.GemvT(o.A, y, x, o.Threads) }

// RowDot is a plain local dot product over this rank's rows — long
// vectors, so the 4-way unrolled kernel pays. Every row-space inner
// product in the solvers goes through RowDot, keeping one association
// per solver run.
func (o *DenseOperator) RowDot(a, b []float64) float64 { return dense.DotUnrolled(a, b) }

// GlobalRow is the identity in the shared-memory case.
func (o *DenseOperator) GlobalRow(local int) int64 { return int64(local) }

// MatMat computes Y = A·W in one BLAS3 pass (register-tiled GEMM)
// instead of W.Cols separate GEMVs.
func (o *DenseOperator) MatMat(w, y *dense.Matrix) { dense.MatMulInto(y, o.A, w, o.Threads) }

// MatTMat computes Z = Aᵀ·Y in one BLAS3 pass with the fixed-block
// deterministic reduction.
func (o *DenseOperator) MatTMat(y, z *dense.Matrix) { dense.MatMulTAInto(z, o.A, y, o.Threads) }

// RowGram computes g = YᵀY with the fixed-block deterministic BLAS3
// reduction — the shared-memory fast path of the RowGramer extension.
func (o *DenseOperator) RowGram(y, g *dense.Matrix) { dense.MatMulTAInto(g, y, y, o.Threads) }

// Gram computes g = AᵀA with the threaded symmetric rank-k kernel.
func (o *DenseOperator) Gram(g *dense.Matrix, work []float64) []float64 {
	return dense.SyrkInto(g, o.A, work, o.Threads)
}

var _ Operator = (*DenseOperator)(nil)
var _ GlobalRowIDer = (*DenseOperator)(nil)
var _ BlockOperator = (*DenseOperator)(nil)
var _ RowGramer = (*DenseOperator)(nil)
var _ GramOperator = (*DenseOperator)(nil)

// BlockOperator is an optional Operator extension for applying the
// operator to a whole panel at once. The randomized solver's panel
// helpers use it when available — one
// BLAS3 pass over A per panel instead of one BLAS2 pass per column —
// and otherwise fall back to a column loop over MatVec/MatTVec, so
// plain distributed operators keep working unchanged.
type BlockOperator interface {
	// MatMat computes Y = A·W with W cols x b (replicated) and Y
	// LocalRows x b (local).
	MatMat(w, y *dense.Matrix)
	// MatTMat computes Z = Aᵀ·Y with Y LocalRows x b (local) and Z
	// cols x b; distributed implementations reduce Z across ranks so
	// every rank receives the identical panel.
	MatTMat(y, z *dense.Matrix)
}

// RowGramer is an optional Operator extension computing the global Gram
// matrix g = YᵀY of a local row-space panel (Y LocalRows x b, g b x b)
// in one pass. Distributed implementations reduce the local Gram across
// ranks so every rank receives the identical replicated g — the
// communication primitive the CholeskyQR2 orthonormalization of the
// Randomized solver is built on (one b² AllReduce replaces a
// distributed QR). Without the extension the solver falls back to
// b(b+1)/2 RowDot collectives.
type RowGramer interface {
	RowGram(y, g *dense.Matrix)
}

// opThreads returns the operator's shared-memory thread budget for the
// solver's own dense work (reorthogonalization sweeps): DenseOperator
// carries one explicitly; any other operator (the distributed ones,
// whose rank goroutines each run a solver concurrently) gets 1 so SPMD
// ranks never oversubscribe the machine through the fallback spawner.
func opThreads(op Operator) int {
	if d, ok := op.(*DenseOperator); ok {
		return d.Threads
	}
	return 1
}

// opMatMat computes y = A·w, through BlockOperator when the operator
// supports it and by columns otherwise. res.MatVecs is advanced by the
// column count either way, so solver operation counts stay comparable
// across operator kinds; res.Passes counts the sweeps over A actually
// made — one for a block operator, one per column otherwise.
func opMatMat(op Operator, w, y *dense.Matrix, ws *Workspace, res *Result) {
	res.MatVecs += w.Cols
	if b, ok := op.(BlockOperator); ok {
		res.Passes++
		b.MatMat(w, y)
		return
	}
	res.Passes += w.Cols
	x := dense.ReuseVec(ws.colIn, w.Rows)
	ws.colIn = x
	out := dense.ReuseVec(ws.colOut, y.Rows)
	ws.colOut = out
	for j := 0; j < w.Cols; j++ {
		for i := 0; i < w.Rows; i++ {
			x[i] = w.At(i, j)
		}
		op.MatVec(x, out)
		for i := 0; i < y.Rows; i++ {
			y.Set(i, j, out[i])
		}
	}
}

// opMatTMat computes z = Aᵀ·y, blocked when possible, by columns
// otherwise.
func opMatTMat(op Operator, y, z *dense.Matrix, ws *Workspace, res *Result) {
	res.MatVecs += y.Cols
	if b, ok := op.(BlockOperator); ok {
		res.Passes++
		b.MatTMat(y, z)
		return
	}
	res.Passes += y.Cols
	in := dense.ReuseVec(ws.colOut, y.Rows)
	ws.colOut = in
	out := dense.ReuseVec(ws.colIn, z.Rows)
	ws.colIn = out
	for j := 0; j < y.Cols; j++ {
		for i := 0; i < y.Rows; i++ {
			in[i] = y.At(i, j)
		}
		op.MatTVec(in, out)
		for i := 0; i < z.Rows; i++ {
			z.Set(i, j, out[i])
		}
	}
}

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
