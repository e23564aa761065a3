package dense

import "sync"

// This file holds the register-tiled micro-kernels and the pooled
// scratch behind the level-2/3 BLAS layer. Two invariants govern every
// kernel here:
//
//  1. Fixed association: each output element accumulates its terms in
//     one canonical order (ascending k for GEMM, ascending row for the
//     transposed products, Dot's single-chain association for the row
//     dots) regardless of tile or thread boundaries. Tiling changes
//     instruction scheduling, never values, so the HOOI fit trajectory
//     stays bitwise identical for every thread count and schedule. The
//     assembly tiles (atbTiles, matMulRowsNarrow) are held to it by the
//     Go loops they stand in front of: per term a multiply then an add,
//     from the Go loop's starting value, and the zero-skipping Axpy only
//     where the Go loop has it (past the last whole four).
//  2. No steady-state allocation: reduction partials and packing
//     buffers come from a sync.Pool, whose per-P caches effectively pin
//     a warm buffer to each worker between calls, or from an operand
//     that outlives the call (SyrkInto's work, the state a KronRows
//     keeps), which no collection empties.

// dot2 returns (Dot(x0, y), Dot(x1, y)) sharing one streaming pass
// over y: two independent single-accumulator chains with exactly Dot's
// association, so each result is bitwise identical to a separate Dot
// call no matter where a row falls relative to a tile boundary. (The
// tile kernels pair rows for bandwidth — y is loaded once for two rows
// — while the per-row association stays that of the scalar kernel.)
func dot2(x0, x1, y []float64) (float64, float64) {
	n := len(y)
	if len(x0) != n || len(x1) != n {
		panic("dense: dot2 length mismatch")
	}
	var sa, sb float64
	for i, v := range y {
		sa += x0[i] * v
		sb += x1[i] * v
	}
	return sa, sb
}

// tileStripBytes is how much of the operands one pass of the AᵀB tiles
// walks, so that every tile of the destination re-reads it from L1. A
// constant of the code (SYRK at C = 100 measured flat from 24 to 64 KiB on
// a 48 KiB L1d); no result depends on it.
const tileStripBytes = 32 << 10

// laneMask[4-w:] is the atb4x4AVX2 mask of a tile w columns wide.
var laneMask = [8]int64{-1, -1, -1, -1, 0, 0, 0, 0}

// atbTiles is the tiled part of matMulTABlock and, with upper set and
// b == a, of syrkBlock: p += A[lo:end,:]ᵀ·B[lo:end,:] over the whole groups
// of four rows, end = lo + (hi-lo)&^3, which it returns for the Go loop to
// finish from. Within a strip of rows, register tiles cover four rows of p
// at a time and the a.Cols%4 last rows of p go through Axpy4 as in the Go
// loop. Every element, tile or not, takes its rows in ascending order, no
// zero skipped.
func atbTiles(p []float64, a, b *Matrix, lo, hi int, upper bool) int {
	ac, bc := a.Cols, b.Cols
	rowBytes := 8 * ac
	if b != a {
		rowBytes += 8 * bc
	}
	step := max(4, tileStripBytes/rowBytes&^3)
	end := lo + (hi-lo)&^3
	for r0 := lo; r0 < end; r0 += step {
		n := min(step, end-r0)
		ar, br := a.Data[r0*ac:(r0+n)*ac], b.Data[r0*bc:(r0+n)*bc]
		j := 0
		for ; j+4 <= ac; j += 4 {
			if useAVX512 {
				atbRowAVX512(p, ar, br, ac, bc, j, n, upper)
			} else {
				atbRowAVX2(p, ar, br, ac, bc, j, n, upper)
			}
		}
		for ; j < ac; j++ {
			k := 0
			if upper {
				k = j
			}
			for i := 0; i < n; i += 4 {
				a4 := ar[i*ac+j:]
				Axpy4(a4[0], a4[ac], a4[2*ac], a4[3*ac], br[i*bc+k:], bc, p[j*bc+k:(j+1)*bc])
			}
		}
	}
	return end
}

// atbRowAVX2 is rows j to j+3 of p in atbTiles on the n operand rows ar and
// br: 4 x 8 tiles (from column j&^7 when only the upper triangle is
// wanted), then the masked 4 x 4 tile on the columns past the last whole
// eight.
func atbRowAVX2(p, ar, br []float64, ac, bc, j, n int, upper bool) {
	k := 0
	if upper {
		k = j &^ 7
	}
	for ; k+8 <= bc; k += 8 {
		atb4x8AVX2(&ar[j], ac, &br[k], bc, &p[j*bc+k], bc, n)
	}
	for ; k < bc; k += 4 {
		atb4x4AVX2(&ar[j], ac, &br[k], bc, &p[j*bc+k], bc, n, &laneMask[4-min(4, bc-k)])
	}
}

// atbRowAVX512 is atbRowAVX2 on the ZMM tiles: 4 x 16 tiles, then one
// masked tile on the columns past the last whole sixteen. With only the
// upper triangle wanted the tiles start at the diagonal, column j, so
// that no more than the 4 x 4 block's six elements below it are computed.
// Each tile prefetches the columns it reads of the next strip's rows, n
// rows on (ATBPREFETCH).
func atbRowAVX512(p, ar, br []float64, ac, bc, j, n int, upper bool) {
	k := 0
	if upper {
		k = j
	}
	for ; k+16 <= bc; k += 16 {
		atb4x16AVX512(&ar[j], ac, &br[k], bc, &p[j*bc+k], bc, n)
	}
	if w := bc - k; w > 0 {
		atb4x16MaskAVX512(&ar[j], ac, &br[k], bc, &p[j*bc+k], bc, n, 1<<w-1)
	}
}

// GEMM panel geometry: C row segments of gemmJC columns stay resident
// in L1 across the whole k sweep, and when B is wide enough that its
// rows are far apart, k-panels of gemmKC rows are packed into a
// contiguous pooled buffer first (the classic GEMM B-pack), so the
// inner kernel streams one dense panel instead of gemmKC strided rows.
const (
	gemmJC = 512
	gemmKC = 64
)

// gemmNarrow is the widest B the narrow-GEMM tile takes: three vectors a
// row, twelve accumulators for four rows of C.
const gemmNarrow = 12

// matMulRows computes C[lo:hi,:] = A[lo:hi,:] * B for row-major operands,
// overwriting those C rows: through the narrow-GEMM tile when B has at
// most gemmNarrow columns and the build and the CPU have it, matMulRowsGo
// otherwise (on rows of a hundred Axpy4 already runs at the load/store
// bound).
func matMulRows(c, a, b *Matrix, lo, hi int) {
	if useAVX2 && b.Cols <= gemmNarrow && b.Cols > 0 && a.Cols >= 4 && hi-lo >= 4 {
		matMulRowsNarrow(c, a, b, lo, hi)
		return
	}
	matMulRowsGo(c, a, b, lo, hi)
}

// matMulRowsNarrow is matMulRows through gemm4x12AVX2, four rows of C a
// call, on B's first k&^3 rows zero-padded into a pooled k x 12 panel (the
// padding columns are computed and dropped). The tile takes those terms
// in ascending k from +0 without skipping a zero, as Axpy4 gives them to a
// zeroed row; the k%4 last terms go through the zero-skipping Axpy as in
// matMulRowsGo. When hi-lo is not a multiple of four the last call backs
// up over rows already written and writes them the same values again.
func matMulRowsNarrow(c, a, b *Matrix, lo, hi int) {
	kdim := a.Cols
	k4 := kdim &^ 3
	sc := getScratch((k4 + 4) * gemmNarrow)
	panel, out := sc.data[:k4*gemmNarrow], sc.data[k4*gemmNarrow:]
	for k := 0; k < k4; k++ {
		row := panel[k*gemmNarrow : (k+1)*gemmNarrow]
		clear(row[copy(row, b.Row(k)):])
	}
	for i := lo; i < hi; i += 4 {
		i = min(i, hi-4)
		gemm4x12AVX2(&a.Data[i*kdim], kdim, &panel[0], k4, &out[0])
		for r := 0; r < 4; r++ {
			arow, crow := a.Row(i+r), c.Row(i+r)
			copy(crow, out[r*gemmNarrow:])
			for k := k4; k < kdim; k++ {
				Axpy(arow[k], b.Row(k), crow)
			}
		}
	}
	sc.release()
}

// matMulRowsGo is matMulRows' Go loop, the definition the tile is held
// to. It zeroes its own C rows (each worker its range, not one serial pass
// before the region). The inner kernel is a k-unrolled Axpy4 against a
// j-panel of B; per element the k order is ascending across panels and
// within them, so the result matches the naive i-k-j loop bit for bit and
// never depends on [lo, hi).
func matMulRowsGo(c, a, b *Matrix, lo, hi int) {
	kdim, bc := a.Cols, b.Cols
	clear(c.Data[lo*bc : hi*bc])
	if kdim == 0 || bc == 0 {
		return
	}
	// Packing pays once per panel and is amortized over the row range;
	// skip it for narrow B (rows already nearly contiguous) or when too
	// few rows share the packed panel.
	pack := bc > gemmJC && hi-lo >= 8
	var sc *scratch
	if pack {
		sc = getScratch(gemmKC * gemmJC)
	}
	for j0 := 0; j0 < bc; j0 += gemmJC {
		j1 := min(j0+gemmJC, bc)
		jw := j1 - j0
		for k0 := 0; k0 < kdim; k0 += gemmKC {
			k1 := min(k0+gemmKC, kdim)
			if pack {
				panel := sc.data[:(k1-k0)*jw]
				for k := k0; k < k1; k++ {
					copy(panel[(k-k0)*jw:(k-k0+1)*jw], b.Row(k)[j0:j1])
				}
				for i := lo; i < hi; i++ {
					arow := a.Row(i)
					crow := c.Row(i)[j0:j1]
					k := k0
					for ; k+4 <= k1; k += 4 {
						Axpy4(arow[k], arow[k+1], arow[k+2], arow[k+3], panel[(k-k0)*jw:], jw, crow)
					}
					for ; k < k1; k++ {
						Axpy(arow[k], panel[(k-k0)*jw:(k-k0+1)*jw], crow)
					}
				}
				continue
			}
			for i := lo; i < hi; i++ {
				arow := a.Row(i)
				crow := c.Row(i)[j0:j1]
				k := k0
				for ; k+4 <= k1; k += 4 {
					Axpy4(arow[k], arow[k+1], arow[k+2], arow[k+3], b.Data[k*bc+j0:], bc, crow)
				}
				for ; k < k1; k++ {
					Axpy(arow[k], b.Row(k)[j0:j1], crow)
				}
			}
		}
	}
	if sc != nil {
		sc.release()
	}
}

// scratch is a pooled float64 buffer used for reduction partials and
// packed GEMM panels. Contents are unspecified on Get; callers zero
// what they need. A row sum's operands ride along with its partials.
type scratch struct {
	data []float64
	a, b *Matrix
	x    []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	if cap(s.data) < n {
		s.data = make([]float64, n)
	}
	s.data = s.data[:n]
	return s
}

func (s *scratch) release() { scratchPool.Put(s) }

// ReuseMatrix returns a zeroed r x c matrix, reusing m's backing
// storage when it is large enough and allocating otherwise. Growth is
// geometric (at least double the old capacity), so callers that resize
// a workspace buffer upward one step at a time — the Lanczos projected
// bidiagonal grows by one row per iteration — amortize to O(log)
// allocations instead of one per call. Call sites keep the returned
// matrix in the workspace slot, so steady-state reuse allocates
// nothing.
func ReuseMatrix(m *Matrix, r, c int) *Matrix {
	n := r * c
	if m == nil || cap(m.Data) < n {
		grown := n
		if m != nil && 2*cap(m.Data) > grown {
			grown = 2 * cap(m.Data)
		}
		return &Matrix{Rows: r, Cols: c, Data: make([]float64, grown)[:n]}
	}
	m.Rows, m.Cols = r, c
	m.Data = m.Data[:n]
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// ReuseMatrixUninit is ReuseMatrix without the zeroing: contents are
// unspecified. For buffers whose every element is written before it is
// read (the Lanczos Krylov bases), the memset ReuseMatrix performs is
// pure memory traffic — megabytes per solve on large modes.
func ReuseMatrixUninit(m *Matrix, r, c int) *Matrix {
	n := r * c
	if m == nil || cap(m.Data) < n {
		grown := n
		if m != nil && 2*cap(m.Data) > grown {
			grown = 2 * cap(m.Data)
		}
		return &Matrix{Rows: r, Cols: c, Data: make([]float64, grown)[:n]}
	}
	m.Rows, m.Cols = r, c
	m.Data = m.Data[:n]
	return m
}

// ReuseVec returns a zeroed length-n slice, reusing v's backing array
// when it is large enough; like ReuseMatrix it grows geometrically.
func ReuseVec(v []float64, n int) []float64 {
	if cap(v) < n {
		grown := n
		if 2*cap(v) > grown {
			grown = 2 * cap(v)
		}
		return make([]float64, grown)[:n]
	}
	v = v[:n]
	for i := range v {
		v[i] = 0
	}
	return v
}
