package dense

import (
	"math"

	"hypertensor/internal/par"
)

// serialCutoff is the multiply-add count below which the level-2/3
// kernels skip the parallel runtime and run inline: a pool region costs
// a couple of microseconds of channel handoff, which dwarfs the
// arithmetic of the small projected problems the TRSVD solvers generate
// in bulk. The serial paths reuse the same fixed block
// association as the parallel ones, so the cutoff never changes results.
const serialCutoff = 1 << 15

// Dot returns the inner product of x and y, which must have equal
// length. The body must stay within the compiler inlining budget — the
// TTMc kernels call it once per nonzero on rank-length vectors, where
// the call overhead would dominate — so the 4-way unrolled variant is
// the separate DotUnrolled, which long-vector call sites pick
// explicitly.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("dense: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// DotUnrolled is the 4-way unrolled dot product: four independent
// accumulators break the add-latency dependency chain and combine in a
// fixed order, winning ~15-30% on vectors longer than a few dozen
// elements. The association differs from Dot, so a kernel must use one
// variant consistently wherever bitwise reproducibility across code
// paths matters.
func DotUnrolled(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("dense: Dot length mismatch")
	}
	n := len(y)
	x = x[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		s0 += x4[0] * y4[0]
		s1 += x4[1] * y4[1]
		s2 += x4[2] * y4[2]
		s3 += x4[3] * y4[3]
	}
	var t float64
	for ; i < n; i++ {
		t += x[i] * y[i]
	}
	return ((s0 + s1) + (s2 + s3)) + t
}

// Axpy computes y += alpha*x elementwise; alpha == 0 (either sign) is a
// no-op, so an Inf or NaN in x does not reach y through a zero. It is
// always the Go loop: like Dot it stays small enough to inline into the
// per-nonzero loops, whose vectors are a rank long. AxpyUnrolled is the
// long-vector variant (identical bits — the update is elementwise).
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("dense: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// AxpyUnrolled is the long-vector y += alpha*x, bitwise identical to
// Axpy on every input (elementwise operation, no reassociation, the same
// alpha == 0 no-op): the AVX2 kernel when the CPU has it and the vectors
// hold at least four elements, the 4-way unrolled Go loop otherwise.
func AxpyUnrolled(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("dense: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	if useAVX2 && len(y) >= 4 {
		axpyAVX2(alpha, &x[0], &y[0], len(y))
		return
	}
	axpyUnrolledGo(alpha, x, y)
}

// axpyUnrolledGo is AxpyUnrolled's Go loop (lengths already checked).
func axpyUnrolledGo(alpha float64, x, y []float64) {
	n := len(y)
	x = x[:n]
	for i := 0; i+4 <= n; i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		y4[0] += alpha * x4[0]
		y4[1] += alpha * x4[1]
		y4[2] += alpha * x4[2]
		y4[3] += alpha * x4[3]
	}
	for i := n &^ 3; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Scal scales x by alpha in place.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Nrm2 returns the Euclidean norm of x using scaled accumulation.
func Nrm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// The package-level level-2/3 kernels run on a fresh Scratch, for
// one-shot calls; a caller that repeats a call keeps a Scratch.

// GemvInto computes y = A*x into caller-owned storage; see Scratch.Gemv.
func GemvInto(y []float64, a *Matrix, x []float64, threads int) { new(Scratch).Gemv(a, x, y, threads) }

// GemvTInto computes y = A^T*x; see Scratch.GemvT.
func GemvTInto(y []float64, a *Matrix, x []float64, threads int) {
	new(Scratch).GemvT(a, x, y, threads)
}

// MatMul returns C = A*B; see Scratch.MatMulInto.
func MatMul(a, b *Matrix, threads int) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	MatMulInto(c, a, b, threads)
	return c
}

// MatMulInto computes C = A*B into c; see Scratch.MatMulInto.
func MatMulInto(c, a, b *Matrix, threads int) { new(Scratch).MatMulInto(c, a, b, threads) }

// MatMulTA returns C = A^T*B; see Scratch.MatMulTAInto.
func MatMulTA(a, b *Matrix, threads int) *Matrix {
	c := NewMatrix(a.Cols, b.Cols)
	MatMulTAInto(c, a, b, threads)
	return c
}

// MatMulTAInto computes C = A^T*B into c; see Scratch.MatMulTAInto.
func MatMulTAInto(c, a, b *Matrix, threads int) { new(Scratch).MatMulTAInto(c, a, b, threads) }

// Gemv computes y = A*x for a row-major matrix (BLAS2 kernel of the
// shared-memory TRSVD). threads <= 1, or a problem below the serial
// cutoff, runs inline; either way row i is the same Dot, so the result
// is bitwise identical for every thread count. The region body is s.
func (s *Scratch) Gemv(a *Matrix, x, y []float64, threads int) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic("dense: Gemv shape mismatch")
	}
	if a.Rows*a.Cols < serialCutoff {
		threads = 1
	}
	if par.DefaultThreads(threads) <= 1 {
		gemvRows(y, a, x, 0, a.Rows)
		return
	}
	s.a, s.x, s.y = a, x, y
	par.Static(a.Rows, threads, (*gemvRun)(s))
}

// gemvRun is the parallel Gemv's par.Body, a view of the scratch that
// holds its operands: submitting it by interface keeps a GEMV region
// allocation-free (a closure would allocate per call). The other
// kernels' bodies below follow it.
type gemvRun Scratch

func (g *gemvRun) Run(_, lo, hi int) { gemvRows(g.y, g.a, g.x, lo, hi) }

// gemvRows computes y[lo:hi] = A[lo:hi,:]*x with a two-row register
// tile. Each row's dot product uses exactly Dot's single-accumulator
// association (dot2 pairs rows only to share the streaming pass over
// x), so the value of y[i] does not depend on where the tile or thread
// boundaries fall.
func gemvRows(y []float64, a *Matrix, x []float64, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		y[i], y[i+1] = dot2(a.Row(i), a.Row(i+1), x)
	}
	for ; i < hi; i++ {
		y[i] = Dot(a.Row(i), x)
	}
}

// GemvT computes y = A^T*x: the matrix transpose-vector product (MTxV
// in the paper), a sum over the rows of A through par.ReduceRows, so
// the result is bitwise identical for every thread count, which keeps
// the HOOI fit trajectory invariant under the -threads knob. The block
// partials and the operands live in s, and a one-block sum skips even
// that.
func (s *Scratch) GemvT(a *Matrix, x, y []float64, threads int) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic("dense: GemvT shape mismatch")
	}
	if par.OneBlock(a.Rows) {
		clear(y)
		gemvtBlock(y, a, x, 0, a.Rows)
		return
	}
	if a.Rows*a.Cols < serialCutoff {
		threads = 1
	}
	s.a, s.x = a, x
	s.part = par.ReduceRows(y, a.Rows, threads, s.part, (*gemvtSum)(s))
}

// gemvtSum is GemvT's block kernel, a view of the scratch that holds its
// operands and partials. Like the other row sums it adds partials with
// AxpyUnrolled: the Go loop's bits, several times as fast on the wide
// Gram partials.
type gemvtSum Scratch

func (s *gemvtSum) Sum(_ int, p []float64, lo, hi int) { gemvtBlock(p, s.a, s.x, lo, hi) }
func (*gemvtSum) Add(dst, p []float64)                 { AxpyUnrolled(1, p, dst) }

// gemvtBlock accumulates y += A[lo:hi,:]^T * x[lo:hi] with a four-row
// register tile; element j is updated in ascending row order exactly
// like a sequence of Axpy calls, so tiling never changes the value.
func gemvtBlock(y []float64, a *Matrix, x []float64, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		Axpy4(x[i], x[i+1], x[i+2], x[i+3], a.Data[i*a.Cols:(i+4)*a.Cols], a.Cols, y)
	}
	for ; i < hi; i++ {
		Axpy(x[i], a.Row(i), y)
	}
}

// MatMulInto computes C = A*B into caller-owned storage (overwriting
// c), parallel over rows of A with a register-tiled, panel-blocked
// inner kernel. Element (i, j) always accumulates over k in ascending
// order, so the result is bitwise identical for every thread count. It
// is the BLAS3 kernel behind the core-tensor formation and the block
// TRSVD operator applications. B's narrow-tile panel and the region
// body are s's.
func (s *Scratch) MatMulInto(c, a, b *Matrix, threads int) {
	if a.Cols != b.Rows {
		panic("dense: MatMul shape mismatch")
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic("dense: MatMul destination shape mismatch")
	}
	if a.Rows*a.Cols*b.Cols < serialCutoff {
		threads = 1
	}
	s.pack, s.panel = packNarrow(s.pack, a.Cols, b)
	if par.DefaultThreads(threads) <= 1 {
		matMulRows(c, a, b, s.panel, 0, a.Rows)
		return
	}
	s.c, s.a, s.b = c, a, b
	par.Static(a.Rows, threads, (*matMulRun)(s))
}

// matMulRun is the region body of the parallel GEMM.
type matMulRun Scratch

func (m *matMulRun) Run(_, lo, hi int) { matMulRows(m.c, m.a, m.b, m.panel, lo, hi) }

// MatMulTAInto computes C = A^T*B (A is m x n, B is m x p, C is n x p)
// into caller-owned storage: like GemvT a sum over rows through
// par.ReduceRows with its partials in s, bitwise identical for every
// thread count. The tiles run along the product's rows, so where C's are
// the shorter it forms Cᵀ = BᵀA in s, the same products summed in the
// same order, and transposes it (a 125 x 5 C from 50000 rows took 4.5
// times as long the other way).
func (s *Scratch) MatMulTAInto(c, a, b *Matrix, threads int) {
	if a.Rows != b.Rows {
		panic("dense: MatMulTA shape mismatch")
	}
	if c.Rows != a.Cols || c.Cols != b.Cols {
		panic("dense: MatMulTA destination shape mismatch")
	}
	if b.Cols < a.Cols {
		s.t = ReuseVec(s.t, a.Cols*b.Cols)
		ct := Matrix{Rows: b.Cols, Cols: a.Cols, Data: s.t}
		s.matMulTA(&ct, b, a, threads)
		for k := range ct.Rows {
			for j, v := range ct.Row(k) {
				c.Data[j*c.Cols+k] = v
			}
		}
		return
	}
	s.matMulTA(c, a, b, threads)
}

// matMulTA is MatMulTAInto in C's own orientation.
func (s *Scratch) matMulTA(c, a, b *Matrix, threads int) {
	if par.OneBlock(a.Rows) {
		c.Zero()
		matMulTABlock(c.Data, a, b, 0, a.Rows)
		return
	}
	if a.Rows*a.Cols*b.Cols < serialCutoff {
		threads = 1
	}
	s.a, s.b = a, b
	s.part = par.ReduceRows(c.Data, a.Rows, threads, s.part, (*matMulTASum)(s))
}

// matMulTASum is MatMulTAInto's block kernel, a view of the scratch that
// holds its operands and partials.
type matMulTASum Scratch

func (s *matMulTASum) Sum(_ int, p []float64, lo, hi int) { matMulTABlock(p, s.a, s.b, lo, hi) }
func (*matMulTASum) Add(dst, p []float64)                 { AxpyUnrolled(1, p, dst) }

// matMulTABlock accumulates p += A[lo:hi,:]^T * B[lo:hi,:] where p is a
// row-major a.Cols x b.Cols buffer: the AᵀB register tiles over the whole
// groups of four rows when the build and the CPU have them, the Go loop
// over the rest — all of it in the portable build.
func matMulTABlock(p []float64, a, b *Matrix, lo, hi int) {
	if useAVX2 && a.Cols >= 4 {
		lo = atbTiles(p, a, b, lo, hi, false)
	}
	matMulTABlockGo(p, a, b, lo, hi)
}

// matMulTABlockGo is the definition the tiles are held to. Rows are
// consumed four at a time through Axpy4 (no zero skipped), the last
// (hi-lo)%4 one at a time through the zero-skipping Axpy; each destination
// element accumulates in ascending row order, identical to the untiled loop.
func matMulTABlockGo(p []float64, a, b *Matrix, lo, hi int) {
	bc := b.Cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		b4 := b.Data[i*bc : (i+4)*bc]
		for j := 0; j < a.Cols; j++ {
			Axpy4(a0[j], a1[j], a2[j], a3[j], b4, bc, p[j*bc:(j+1)*bc])
		}
	}
	for ; i < hi; i++ {
		arow, brow := a.Row(i), b.Row(i)
		for j, av := range arow {
			if av == 0 {
				continue
			}
			Axpy(av, brow, p[j*bc:(j+1)*bc])
		}
	}
}

// SyrkInto computes the symmetric rank-k product G = AᵀA (A is m x n,
// G n x n) into caller-owned storage: only the upper triangle is
// accumulated — half the multiply-adds of MatMulTAInto(g, a, a) — and
// then mirrored, so g is exactly symmetric. It is the same sum over rows
// through par.ReduceRows, consumed by the same four-row tiles as
// MatMulTAInto, so every upper-triangle element is bitwise equal to that
// kernel's and the result is bitwise identical for every thread count.
// The block partials live in work, which is grown as needed and
// returned: a caller that keeps it allocates nothing in steady state.
func SyrkInto(g, a *Matrix, work []float64, threads int) []float64 {
	n := a.Cols
	if g.Rows != n || g.Cols != n {
		panic("dense: Syrk destination shape mismatch")
	}
	if a.Rows*n*n < serialCutoff {
		threads = 1
	}
	work = par.ReduceRows(g.Data, a.Rows, threads, work, (*syrkSum)(a))
	for i := 1; i < n; i++ {
		row := g.Row(i)
		for j := 0; j < i; j++ {
			row[j] = g.Data[j*n+i]
		}
	}
	return work
}

// syrkSum is SyrkInto's block kernel: A itself, so it needs no scratch.
type syrkSum Matrix

func (s *syrkSum) Sum(_ int, p []float64, lo, hi int) { syrkBlock(p, (*Matrix)(s), lo, hi) }

// Add adds the partial's upper triangle, row i from column i on: the
// mirror overwrites everything below it.
func (s *syrkSum) Add(dst, p []float64) {
	n := s.Cols
	for i := range n {
		AxpyUnrolled(1, p[i*n+i:i*n+n], dst[i*n+i:i*n+n])
	}
}

// syrkBlock accumulates the upper triangle of p += A[lo:hi,:]ᵀ·A[lo:hi,:]
// where p is a row-major n x n buffer: matMulTABlock with both operands
// A and each destination row started at its diagonal, so an element
// sees exactly that kernel's operations in that kernel's order. A tile
// that straddles the diagonal also writes below it; SyrkInto mirrors the
// upper triangle over whatever is there.
func syrkBlock(p []float64, a *Matrix, lo, hi int) {
	if useAVX2 && a.Cols >= 4 {
		lo = atbTiles(p, a, a, lo, hi, true)
	}
	syrkBlockGo(p, a, lo, hi)
}

// syrkBlockGo is syrkBlock's Go loop; it writes nothing below the diagonal.
func syrkBlockGo(p []float64, a *Matrix, lo, hi int) {
	n := a.Cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		a4 := a.Data[i*n : (i+4)*n]
		for j := 0; j < n; j++ {
			Axpy4(a4[j], a4[n+j], a4[2*n+j], a4[3*n+j], a4[j:], n, p[j*n+j:(j+1)*n])
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)
		for j, av := range arow {
			if av == 0 {
				continue
			}
			Axpy(av, arow[j:], p[j*n+j:(j+1)*n])
		}
	}
}
